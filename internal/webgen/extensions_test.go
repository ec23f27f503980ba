package webgen

import (
	"math/rand"
	"strings"
	"testing"

	"akb/internal/kb"
)

func TestSynonymName(t *testing.T) {
	cases := map[string]string{
		"release date":  "date of release",
		"head of state": "state of head of",
		"gdp":           "gdp", // single word: unchanged
		"total area":    "area of total",
	}
	for in, want := range cases {
		if got := SynonymName(in); got != want {
			t.Errorf("SynonymName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSynonymLabelsRendered(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 4, EntitiesPerClass: 15, AttrsPerEntity: 12})
	sites := GenerateSites(w, SiteConfig{
		Seed: 4, SitesPerClass: 2, PagesPerSite: 10, AttrsPerPage: 8, SynonymProb: 1,
	})
	// With probability 1, every multi-word attribute renders as a variant.
	variants := 0
	for _, s := range sites {
		for _, p := range s.Pages {
			for _, pair := range p.Truth {
				if strings.Contains(pair.Attr, " of ") {
					variants++
				}
			}
		}
	}
	if variants == 0 {
		t.Fatal("no synonym labels rendered at SynonymProb=1")
	}
}

func TestTypoValue(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 4, EntitiesPerClass: 15, AttrsPerEntity: 12})
	sites := GenerateSites(w, SiteConfig{
		Seed: 9, SitesPerClass: 2, PagesPerSite: 10, AttrsPerPage: 8, TypoProb: 0.5,
	})
	typos := 0
	for _, s := range sites {
		for _, p := range s.Pages {
			e, _ := w.Entity(p.Entity)
			for _, pair := range p.Truth {
				if !pair.Correct && !w.IsTrue(e, pair.Attr, pair.Value) {
					typos++
				}
			}
		}
	}
	if typos == 0 {
		t.Fatal("no typo values at TypoProb=0.5")
	}
}

func TestTypoValueGuards(t *testing.T) {
	// Short and numeric values are never typo'd (typoValue is exercised
	// through the generator; here we call it via a deterministic wrapper).
	w := kb.NewWorld(kb.WorldConfig{Seed: 4, EntitiesPerClass: 5, AttrsPerEntity: 8})
	_ = w
	// Direct checks on the helper.
	r := newTestRand()
	if got := typoValue("abcd", r); got != "abcd" {
		t.Errorf("short value typo'd: %q", got)
	}
	if got := typoValue("1234567", r); got != "1234567" {
		t.Errorf("numeric value typo'd: %q", got)
	}
	long := "Michael Curtiz"
	changed := false
	for i := 0; i < 16; i++ {
		if typoValue(long, r) != long {
			changed = true
		}
	}
	if !changed {
		t.Error("long text value never typo'd")
	}
}

func TestCorpusTemporalFacts(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 4, EntitiesPerClass: 15, AttrsPerEntity: 12})
	docs := GenerateCorpus(w, TextConfig{
		Seed: 4, DocsPerClass: 5, FactsPerDoc: 3, TemporalFacts: 4,
	})
	temporal := 0
	for _, d := range docs {
		temporal += len(d.TemporalTruthRows)
		for _, tt := range d.TemporalTruthRows {
			if tt.From > tt.To {
				t.Errorf("reversed span %+v", tt)
			}
			if !strings.Contains(d.Text, tt.Value) {
				t.Errorf("temporal value %q not in text", tt.Value)
			}
			e, ok := w.Entity(tt.Entity)
			if !ok {
				t.Fatalf("unknown entity %q", tt.Entity)
			}
			if tt.Correct && e.ValueAt(tt.Attr, tt.From) != tt.Value {
				t.Errorf("correct temporal fact disagrees with timeline: %+v", tt)
			}
		}
	}
	// Only classes with temporal attributes produce temporal sentences.
	if temporal == 0 {
		t.Fatal("no temporal sentences generated")
	}
}

func TestGenerateListPagesShape(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 4, EntitiesPerClass: 12, AttrsPerEntity: 10})
	pages := GenerateListPages(w, 2)
	if len(pages) != 10 { // 5 classes x 2 sites
		t.Fatalf("hosts = %d, want 10", len(pages))
	}
	for host, ps := range pages {
		if len(ps) != 2 {
			t.Errorf("%s: %d pages, want 2", host, len(ps))
		}
		for _, p := range ps {
			if len(p.Attrs) != 4 {
				t.Errorf("%s%s: %d columns, want 4", host, p.URL, len(p.Attrs))
			}
			if len(p.Rows) != 8 {
				t.Errorf("%s%s: %d rows, want 8", host, p.URL, len(p.Rows))
			}
			if !strings.Contains(p.HTML, `class="listing"`) {
				t.Errorf("%s%s: no listing table", host, p.URL)
			}
		}
	}
}

// newTestRand gives tests a deterministic rng without importing math/rand
// at every call site.
func newTestRand() *rand.Rand { return rand.New(rand.NewSource(1)) }
