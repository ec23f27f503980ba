package webgen

import (
	"fmt"
	"math/rand"
	"strings"

	"akb/internal/kb"
)

// Document is one generated Web-text document.
type Document struct {
	// ID identifies the document within the corpus.
	ID string
	// Source is the synthetic hostname the document "came from".
	Source string
	// Class is the dominant entity class of the document.
	Class string
	// Text is the document body: a sequence of sentences.
	Text string
	// Truth records the factual (entity, attribute, value) sentences
	// rendered, for test assertions.
	Truth []FactTruth
	// TemporalTruthRows records rendered time-scoped sentences.
	TemporalTruthRows []TemporalTruth
}

// FactTruth records one rendered factual sentence.
type FactTruth struct {
	Entity  string
	Attr    string
	Value   string
	Correct bool
}

// TemporalTruth records one rendered time-scoped sentence.
type TemporalTruth struct {
	Entity   string
	Attr     string
	Value    string
	From, To int
	Correct  bool
}

// TextConfig controls text-corpus generation.
type TextConfig struct {
	Seed int64
	// DocsPerClass is the number of documents per class.
	DocsPerClass int
	// FactsPerDoc is the number of factual sentences per document.
	FactsPerDoc int
	// ValueErrorRate is the probability a factual sentence states a wrong
	// value.
	ValueErrorRate float64
	// DistractorShare is the ratio of non-factual filler sentences to
	// factual ones.
	DistractorShare float64
	// GeneralizeProb is the probability a hierarchical value is stated at a
	// coarser level (see webgen.SiteConfig.GeneralizeProb).
	GeneralizeProb float64
	// TemporalFacts, when positive, adds that many time-scoped sentences
	// per document about temporal attributes ("X was the head of state of
	// Y from 1996 to 2003."), feeding the temporal extractor.
	TemporalFacts int
}

// sentencePatterns are the regular lexical patterns factual sentences
// instantiate; the text extractor learns these surface shapes from seed
// attributes and applies them to find new ones (paper §3.1).
var sentencePatterns = []func(e, a, v string) string{
	func(e, a, v string) string { return "The " + a + " of " + e + " is " + v + "." },
	func(e, a, v string) string { return e + "'s " + a + " is " + v + "." },
	func(e, a, v string) string { return v + " is the " + a + " of " + e + "." },
	func(e, a, v string) string { return e + " has a " + a + " of " + v + "." },
}

var distractors = []string{
	"Critics were divided at the time.",
	"More details can be found in the archive.",
	"The announcement drew wide attention.",
	"Historians continue to debate this period.",
	"Visitors often remark on the atmosphere.",
	"The records from that era are incomplete.",
	"Local newspapers covered the story extensively.",
	"Many consider it a defining moment.",
}

// GenerateCorpus builds a Web-text corpus over the world's classes.
func GenerateCorpus(w *kb.World, cfg TextConfig) []*Document {
	if cfg.DocsPerClass <= 0 {
		cfg.DocsPerClass = 10
	}
	if cfg.FactsPerDoc <= 0 {
		cfg.FactsPerDoc = 12
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	var docs []*Document
	for _, class := range w.Ontology.ClassNames() {
		entities := w.EntitiesOf(class)
		if len(entities) == 0 {
			continue
		}
		for d := 0; d < cfg.DocsPerClass; d++ {
			doc := &Document{
				ID:     fmt.Sprintf("%s-doc-%d", strings.ToLower(class), d),
				Source: fmt.Sprintf("%s-news-%d.example.org", strings.ToLower(class), d%3),
				Class:  class,
			}
			var sentences []string
			for f := 0; f < cfg.FactsPerDoc; f++ {
				e := entities[r.Intn(len(entities))]
				attr, val := randomAttr(e, r)
				if attr == "" {
					continue
				}
				correct := true
				if r.Float64() < cfg.ValueErrorRate {
					val = wrongValue(w, e, attr, r)
					correct = false
				} else {
					val = maybeGeneralize(w, val, cfg.GeneralizeProb, r)
				}
				pat := sentencePatterns[r.Intn(len(sentencePatterns))]
				sentences = append(sentences, pat(e.Name, attr, val))
				doc.Truth = append(doc.Truth, FactTruth{Entity: e.Name, Attr: attr, Value: val, Correct: correct})
				// Interleave distractor sentences.
				if r.Float64() < cfg.DistractorShare {
					sentences = append(sentences, distractors[r.Intn(len(distractors))])
				}
			}
			for f := 0; f < cfg.TemporalFacts; f++ {
				e := entities[r.Intn(len(entities))]
				attr, spans := randomTimelineAttr(e, r)
				if attr == "" {
					continue
				}
				sp := spans[r.Intn(len(spans))]
				val := sp.Value
				correct := true
				if r.Float64() < cfg.ValueErrorRate {
					val = kb.RandomPersonName(r)
					correct = false
				}
				var sent string
				if sp.To >= 2015 {
					sent = fmt.Sprintf("%s has been the %s of %s since %d.", val, attr, e.Name, sp.From)
				} else {
					sent = fmt.Sprintf("%s was the %s of %s from %d to %d.", val, attr, e.Name, sp.From, sp.To)
				}
				sentences = append(sentences, sent)
				doc.TemporalTruthRows = append(doc.TemporalTruthRows, TemporalTruth{
					Entity: e.Name, Attr: attr, Value: val, From: sp.From, To: sp.To, Correct: correct,
				})
			}
			doc.Text = strings.Join(sentences, " ")
			docs = append(docs, doc)
		}
	}
	return docs
}

// randomTimelineAttr picks one of the entity's temporal attributes.
func randomTimelineAttr(e *kb.Entity, r *rand.Rand) (string, []kb.Span) {
	if len(e.Timelines) == 0 {
		return "", nil
	}
	tl := e.Timelines[r.Intn(len(e.Timelines))]
	return tl.Attr, tl.Spans
}

// randomAttr picks one of the entity's attributes and returns it with its
// first true value.
func randomAttr(e *kb.Entity, r *rand.Rand) (attr, value string) {
	if len(e.Values) == 0 {
		return "", ""
	}
	row := e.Values[r.Intn(len(e.Values))]
	return row.Attr, row.Values[0]
}
