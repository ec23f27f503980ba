package querystream

import (
	"strings"
	"testing"

	"akb/internal/kb"
)

func smallWorld() *kb.World {
	return kb.NewWorld(kb.WorldConfig{Seed: 2, EntitiesPerClass: 20, AttrsPerEntity: 12})
}

func smallConfig() GenConfig {
	return GenConfig{
		Seed:         2,
		TotalRecords: 5000,
		Plans: []ClassPlan{
			{Class: "Book", Relevant: 300, Credible: 10, NoncrediblePool: 8},
			{Class: "Film", Relevant: 400, Credible: 6, NoncrediblePool: 10},
			{Class: "Hotel", Relevant: 40, Credible: 0, NoncrediblePool: 15},
		},
	}
}

func TestGenerateTotalSize(t *testing.T) {
	w := smallWorld()
	s := Generate(w, smallConfig())
	if s.Len() != 5000 {
		t.Fatalf("stream size = %d, want 5000", s.Len())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := smallWorld()
	a := Generate(w, smallConfig())
	b := Generate(smallWorld(), smallConfig())
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %q vs %q", i, a.Records[i].Text, b.Records[i].Text)
		}
	}
}

func TestGenerateOrigins(t *testing.T) {
	s := Generate(smallWorld(), smallConfig())
	counts := map[string]int{}
	for _, rec := range s.Records {
		counts[rec.Origin]++
	}
	if counts["google"] == 0 || counts["aol"] == 0 {
		t.Fatalf("origin mix = %v, want both google and aol", counts)
	}
	if len(counts) != 2 {
		t.Fatalf("unexpected origins: %v", counts)
	}
}

// countPlanted counts records that textually embed an entity of the class in
// a question pattern; it is an upper bound check on the generator's
// bookkeeping, independent of the extractor.
func countPlanted(w *kb.World, s *Stream, class string) int {
	names := map[string]bool{}
	for _, n := range w.EntityNames(class) {
		names[n] = true
	}
	count := 0
	for _, rec := range s.Records {
		q := rec.Text
		matched := false
		if i := strings.Index(q, "'s "); i > 0 && names[q[:i]] {
			matched = true
		}
		for j := 0; !matched; {
			k := strings.Index(q[j:], " of ")
			if k < 0 {
				break
			}
			j += k + len(" of ")
			suffix := q[j:]
			suffix = strings.TrimPrefix(suffix, "the ")
			suffix = strings.TrimPrefix(suffix, "a ")
			if names[suffix] {
				matched = true
			}
		}
		if matched {
			count++
		}
	}
	return count
}

func TestGeneratePlantsRelevantCounts(t *testing.T) {
	w := smallWorld()
	cfg := smallConfig()
	s := Generate(w, cfg)
	for _, plan := range cfg.Plans {
		got := countPlanted(w, s, plan.Class)
		if got != plan.Relevant {
			t.Errorf("%s: planted %d relevant records, want %d", plan.Class, got, plan.Relevant)
		}
	}
}

func TestGenerateSupportAllocation(t *testing.T) {
	w := smallWorld()
	cfg := smallConfig()
	s := Generate(w, cfg)
	// Count per-attribute mention support for Book the way the extractor
	// will: attribute = text between the pattern head and " of <entity>".
	names := map[string]bool{}
	for _, n := range w.EntityNames("Book") {
		names[n] = true
	}
	support := map[string]int{}
	for _, rec := range s.Records {
		q := rec.Text
		for _, head := range []string{"what is the ", "how is the ", "when is the ", "who is the ", "the "} {
			if !strings.HasPrefix(q, head) {
				continue
			}
			rest := q[len(head):]
			j := 0
			for {
				k := strings.Index(rest[j:], " of ")
				if k < 0 {
					break
				}
				attr := rest[:j+k]
				suffix := rest[j+k+len(" of "):]
				suffix = strings.TrimPrefix(suffix, "the ")
				suffix = strings.TrimPrefix(suffix, "a ")
				if names[suffix] {
					support[attr]++
					break
				}
				j += k + len(" of ")
			}
			break
		}
		if i := strings.Index(q, "'s "); i > 0 && names[q[:i]] {
			support[q[i+len("'s "):]]++
		}
	}
	credible := 0
	meaningless := map[string]bool{}
	for _, m := range MeaninglessAttributes {
		meaningless[m] = true
	}
	for attr, n := range support {
		if n >= CredibleThreshold && !meaningless[attr] {
			credible++
		}
	}
	if credible != 10 {
		t.Errorf("Book credible attributes = %d, want 10", credible)
	}
}

func TestHotelPlanYieldsNoCredible(t *testing.T) {
	w := smallWorld()
	cfg := smallConfig()
	s := Generate(w, cfg)
	names := map[string]bool{}
	for _, n := range w.EntityNames("Hotel") {
		names[n] = true
	}
	support := map[string]int{}
	for _, rec := range s.Records {
		if i := strings.Index(rec.Text, "'s "); i > 0 && names[rec.Text[:i]] {
			support[rec.Text[i+3:]]++
		}
	}
	meaningless := map[string]bool{}
	for _, m := range MeaninglessAttributes {
		meaningless[m] = true
	}
	for attr, n := range support {
		if n >= CredibleThreshold && !meaningless[attr] {
			t.Errorf("Hotel attribute %q has support %d >= threshold", attr, n)
		}
	}
}

func TestCombine(t *testing.T) {
	a := &Stream{Records: []Record{{Text: "one", Origin: "google"}}}
	b := &Stream{Records: []Record{{Text: "two", Origin: "aol"}, {Text: "three", Origin: "aol"}}}
	c := Combine(a, b)
	if c.Len() != 3 {
		t.Fatalf("combined length = %d, want 3", c.Len())
	}
	if c.Records[0].Text != "one" || c.Records[2].Text != "three" {
		t.Error("combine order wrong")
	}
}

func TestDefaultPlansMatchTable3Shape(t *testing.T) {
	plans := DefaultPlans()
	byClass := map[string]ClassPlan{}
	for _, p := range plans {
		byClass[p.Class] = p
	}
	// Paper's relevant-record counts scaled by 100.
	want := map[string]int{
		"Book": 2596, "Film": 4037, "Country": 3932, "University": 246, "Hotel": 155,
	}
	for cls, rel := range want {
		if byClass[cls].Relevant != rel {
			t.Errorf("%s relevant = %d, want %d", cls, byClass[cls].Relevant, rel)
		}
	}
	// Credible-attribute ordering from Table 3: Country > Book > Film >
	// University > Hotel (N/A).
	if !(byClass["Country"].Credible > byClass["Book"].Credible &&
		byClass["Book"].Credible > byClass["Film"].Credible &&
		byClass["Film"].Credible > byClass["University"].Credible &&
		byClass["University"].Credible > byClass["Hotel"].Credible &&
		byClass["Hotel"].Credible == 0) {
		t.Errorf("credible ordering broken: %+v", byClass)
	}
}

func TestFullScaleGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale stream generation skipped in -short")
	}
	w := kb.NewWorld(kb.DefaultWorldConfig())
	s := Generate(w, DefaultGenConfig())
	if s.Len() != 292839 {
		t.Fatalf("full stream = %d records, want 292839 (29,283,918 / 100)", s.Len())
	}
}

// TestGenerateAllocationBound pins stream generation's allocation
// behaviour: a record costs its text — one string, the noise shapes that
// invent a noun appending its syllables into a stack buffer first — and
// nothing else: the record slice is sized once, and a noise record neither
// re-sorts the class list nor copies a class's entity names. 1.01
// allocations per record on this fixture; a Builder, a ToUpper and a concat
// per noun put it at 3.2.
func TestGenerateAllocationBound(t *testing.T) {
	w, cfg := smallWorld(), smallConfig()
	allocs := testing.AllocsPerRun(10, func() { Generate(w, cfg) })
	t.Logf("%.2f allocations a record", allocs/float64(cfg.TotalRecords))
	if limit := 1.2 * float64(cfg.TotalRecords); allocs > limit {
		t.Errorf("Generate allocates %.0f times for %d records, want <= %.0f", allocs, cfg.TotalRecords, limit)
	}
}
