// Package querystream models Web search query logs and generates the
// synthetic stand-in for the paper's 29,283,918-record Google+AOL stream
// (scaled down 100x by default). Query-stream attribute extraction
// (internal/extract/qsx) mines attribute mentions like "what is the capital
// of Fooland" out of these records; Table 3 of the paper is computed over
// this stream.
package querystream

import (
	"fmt"
	"math/rand"

	"akb/internal/kb"
)

// Record is a single query-log record.
type Record struct {
	// Text is the raw query string.
	Text string
	// Origin identifies the contributing log ("google" or "aol").
	Origin string
}

// Stream is an ordered collection of query records.
type Stream struct {
	Records []Record
}

// Len returns the number of records.
func (s *Stream) Len() int { return len(s.Records) }

// Combine concatenates streams, mirroring the paper's combination of the
// Google and AOL logs into one stream.
func Combine(streams ...*Stream) *Stream {
	total := 0
	for _, s := range streams {
		total += len(s.Records)
	}
	out := &Stream{Records: make([]Record, 0, total)}
	for _, s := range streams {
		out.Records = append(out.Records, s.Records...)
	}
	return out
}

// ClassPlan controls the planted attribute-question records for one class.
type ClassPlan struct {
	// Class names the target class.
	Class string
	// Relevant is the number of records that mention a class entity inside
	// an attribute-question pattern (the "Relevant Query Records" column of
	// Table 3, scaled).
	Relevant int
	// Credible is the number of distinct attributes that should accumulate
	// enough well-formed support to pass the extractor's credibility
	// threshold (the "Credible Attributes" column). Zero models Table 3's
	// Hotel row: relevant records exist but support is too diffuse.
	Credible int
	// NoncrediblePool is the number of additional attributes mentioned only
	// a sub-threshold number of times.
	NoncrediblePool int
	// MeaninglessShare is the fraction of relevant records that ask about
	// meaningless attributes ("photos", "lyrics", ...) which the filtering
	// rules must reject. Defaults to 0.05.
	MeaninglessShare float64
}

// DefaultPlans returns per-class plans reproducing the shape of Table 3 at
// 1/100 scale: relevant-record counts are the paper's divided by 100.
func DefaultPlans() []ClassPlan {
	return []ClassPlan{
		{Class: "Book", Relevant: 2596, Credible: 96, NoncrediblePool: 30},
		{Class: "Film", Relevant: 4037, Credible: 59, NoncrediblePool: 40},
		{Class: "Country", Relevant: 3932, Credible: 182, NoncrediblePool: 50},
		{Class: "University", Relevant: 246, Credible: 20, NoncrediblePool: 20},
		{Class: "Hotel", Relevant: 155, Credible: 0, NoncrediblePool: 60},
	}
}

// GenConfig controls stream generation.
type GenConfig struct {
	// Seed drives all randomness.
	Seed int64
	// TotalRecords is the stream size including noise; defaults to 292,839
	// (the paper's 29,283,918 scaled by 100).
	TotalRecords int
	// Plans defaults to DefaultPlans().
	Plans []ClassPlan
}

// DefaultGenConfig returns the full-scale (1/100 of the paper) config.
func DefaultGenConfig() GenConfig {
	return GenConfig{Seed: 1, TotalRecords: 292839, Plans: DefaultPlans()}
}

// CredibleThreshold is the number of well-formed mentions an attribute
// needs to be credible: the generator plants credible attributes with at
// least this many and non-credible ones with fewer, and the query-stream
// extractor (internal/extract/qsx) keeps an attribute at this count.
const CredibleThreshold = 5

// questionPatterns render an (attribute, entity) mention as a query. These
// are exactly the surface forms the paper's improved extractor matches:
// "what/how/when/who is the A of (the/a/an) E", "the A of (the/a/an) E",
// and "E's A".
var questionPatterns = []func(a, e string) string{
	func(a, e string) string { return "what is the " + a + " of " + e },
	func(a, e string) string { return "what is the " + a + " of the " + e },
	func(a, e string) string { return "how is the " + a + " of " + e },
	func(a, e string) string { return "when is the " + a + " of " + e },
	func(a, e string) string { return "who is the " + a + " of " + e },
	func(a, e string) string { return "the " + a + " of " + e },
	func(a, e string) string { return "the " + a + " of a " + e },
	func(a, e string) string { return e + "'s " + a },
}

// MeaninglessAttributes are surface attributes users ask about that carry no
// ontological content; the extractor's filtering rules must drop them.
var MeaninglessAttributes = []string{
	"photos", "pictures", "images", "lyrics", "meaning", "wiki", "review",
	"reviews", "trailer", "wallpaper", "news", "quotes", "cast photos",
	"full movie", "pdf", "summary",
}

// Generate builds a synthetic combined query stream over the world's
// classes. The planted structure makes the class-level outcomes of Table 3
// emerge from the extractor: per-class relevant-record counts match the
// plan, and the number of attributes passing (threshold, filter rules)
// equals the plan's Credible count.
func Generate(w *kb.World, cfg GenConfig) *Stream {
	if cfg.TotalRecords == 0 {
		cfg.TotalRecords = 292839
	}
	if cfg.Plans == nil {
		cfg.Plans = DefaultPlans()
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	records := make([]Record, 0, max(cfg.TotalRecords, 0))

	for _, plan := range cfg.Plans {
		records = append(records, generateClassRecords(w, plan, r)...)
	}
	noise := cfg.TotalRecords - len(records)
	classes := w.Ontology.ClassNames()
	for i := 0; i < noise; i++ {
		records = append(records, noiseRecord(w, classes, r))
	}
	// Shuffle so class records are interleaved like a real log.
	r.Shuffle(len(records), func(i, j int) {
		records[i], records[j] = records[j], records[i]
	})
	return &Stream{Records: records}
}

func generateClassRecords(w *kb.World, plan ClassPlan, r *rand.Rand) []Record {
	entities := w.EntityNames(plan.Class)
	if len(entities) == 0 {
		return nil
	}
	if plan.MeaninglessShare == 0 {
		plan.MeaninglessShare = 0.05
	}
	meaningless := int(float64(plan.Relevant) * plan.MeaninglessShare)
	budget := plan.Relevant - meaningless

	// The attribute pool is stride-sampled across the class's full attribute
	// universe, which extends past what the KBs record: query streams
	// surface attributes no KB has, which is why Table 3's Book row (96)
	// exceeds the combined KB attribute count (60).
	poolSize := plan.Credible + plan.NoncrediblePool
	var pool []kb.Attribute
	if cls := w.Ontology.Class(plan.Class); cls != nil && len(cls.Attributes) >= poolSize {
		universe := cls.Attributes
		meaningless := make(map[string]bool, len(MeaninglessAttributes))
		for _, m := range MeaninglessAttributes {
			meaningless[m] = true
		}
		chosen := make(map[int]bool, poolSize)
		pool = make([]kb.Attribute, 0, poolSize)
		// Credible attributes stride across the whole universe — including
		// the span no KB records — so the query stream genuinely augments
		// the ontology. Names on the meaningless-filter list are skipped:
		// a "credible" attribute the extractor is required to reject would
		// contradict the plan.
		for i := 0; i < plan.Credible; i++ {
			idx := i * len(universe) / plan.Credible
			for chosen[idx] || meaningless[universe[idx].Canonical] {
				idx = (idx + 1) % len(universe)
			}
			chosen[idx] = true
			pool = append(pool, universe[idx])
		}
		for j := 0; len(pool) < poolSize; j++ {
			if !chosen[j] {
				chosen[j] = true
				pool = append(pool, universe[j])
			}
		}
	} else {
		pool = kb.AttributeUniverse(plan.Class, poolSize)
	}

	// Allocate mentions: credible attributes get >= CredibleThreshold
	// each, non-credible get 1..CredibleThreshold-1, and any remaining
	// budget goes to the credible attributes Zipf-style (head attributes
	// asked most).
	mentions := make([]int, poolSize)
	reserved := plan.Credible * CredibleThreshold // floor for credible attributes
	spent := 0
	for i := plan.Credible; i < poolSize && spent < budget-reserved; i++ {
		m := 1 + (i % (CredibleThreshold - 1))
		if spent+m > budget-reserved {
			m = budget - reserved - spent
		}
		mentions[i] = m
		spent += m
	}
	for i := 0; i < plan.Credible; i++ {
		mentions[i] = CredibleThreshold
		spent += CredibleThreshold
	}
	if spent > budget {
		panic(fmt.Sprintf("querystream: plan for %s over budget (%d > %d): raise Relevant or lower Credible",
			plan.Class, spent, budget))
	}
	// Zipf-ish distribution of the leftover over credible attributes; when
	// the class has none (Table 3's Hotel row), top non-credible attributes
	// up while keeping every one strictly below the threshold.
	left := budget - spent
	for left > 0 && plan.Credible > 0 {
		for i := 0; i < plan.Credible && left > 0; i++ {
			add := left / (i + 2)
			if add == 0 {
				add = 1
			}
			if add > left {
				add = left
			}
			mentions[i] += add
			left -= add
		}
	}
	for i := plan.Credible; i < poolSize && left > 0; i++ {
		add := CredibleThreshold - 1 - mentions[i]
		if add > left {
			add = left
		}
		if add > 0 {
			mentions[i] += add
			left -= add
		}
	}
	if left > 0 {
		panic(fmt.Sprintf("querystream: plan for %s cannot absorb %d leftover mentions below threshold: grow NoncrediblePool",
			plan.Class, left))
	}

	var out []Record
	emit := func(attr string) {
		e := entities[r.Intn(len(entities))]
		p := questionPatterns[r.Intn(len(questionPatterns))]
		out = append(out, Record{Text: p(attr, e), Origin: origin(r)})
	}
	for i, m := range mentions {
		attr := pool[i].Canonical
		for k := 0; k < m; k++ {
			emit(attr)
		}
	}
	for k := 0; k < meaningless; k++ {
		emit(MeaninglessAttributes[r.Intn(len(MeaninglessAttributes))])
	}
	return out
}

func origin(r *rand.Rand) string {
	if r.Intn(2) == 0 {
		return "google"
	}
	return "aol"
}

var noiseSites = []string{
	"facebook", "youtube", "weather", "maps", "craigslist", "ebay", "gmail",
	"netflix", "twitter", "amazon",
}

var noiseTails = []string{
	"login", "download", "free online", "near me", "customer service",
	"phone number", "hours", "coupon", "sale",
}

// noiseRecord produces a record that must not count as relevant for any
// class: either it has no attribute-question pattern, or its pattern names
// an entity outside every class's entity set. classes is the ontology's
// sorted class list, computed once per stream.
func noiseRecord(w *kb.World, classes []string, r *rand.Rand) Record {
	switch r.Intn(4) {
	case 0: // navigational
		return Record{
			Text:   noiseSites[r.Intn(len(noiseSites))] + " " + noiseTails[r.Intn(len(noiseTails))],
			Origin: origin(r),
		}
	case 1: // entity mention without a pattern
		entities := w.EntitiesOf(classes[r.Intn(len(classes))])
		return Record{
			Text:   entities[r.Intn(len(entities))].Name + " " + noiseTails[r.Intn(len(noiseTails))],
			Origin: origin(r),
		}
	case 2: // pattern with an unknown entity
		var buf [64]byte
		text := append(buf[:0], "what is the capital of "...)
		text = kb.AppendProperNoun(text, r, 3)
		text = append(text, " Nowhere"...)
		return Record{Text: string(text), Origin: origin(r)}
	default: // word salad: two proper nouns in lower case
		var buf [32]byte
		text := kb.AppendSyllables(buf[:0], r, 2)
		text = append(text, ' ')
		text = kb.AppendSyllables(text, r, 2)
		return Record{Text: string(text), Origin: origin(r)}
	}
}
