package webgen

import (
	"slices"
	"strings"
	"testing"

	"akb/internal/htmldom"
	"akb/internal/kb"
)

func testWorld() *kb.World {
	return kb.NewWorld(kb.WorldConfig{Seed: 4, EntitiesPerClass: 20, AttrsPerEntity: 14})
}

func TestGenerateSitesShape(t *testing.T) {
	w := testWorld()
	cfg := SiteConfig{Seed: 4, SitesPerClass: 3, PagesPerSite: 5, AttrsPerPage: 6, NoiseNodes: 3}
	sites := GenerateSites(w, cfg)
	if len(sites) != 5*3 {
		t.Fatalf("got %d sites, want 15", len(sites))
	}
	hosts := map[string]bool{}
	for _, s := range sites {
		if hosts[s.Host] {
			t.Errorf("duplicate host %q", s.Host)
		}
		hosts[s.Host] = true
		if len(s.Pages) != 5 {
			t.Errorf("%s: %d pages, want 5", s.Host, len(s.Pages))
		}
		for _, p := range s.Pages {
			if p.Entity == "" || p.HTML == "" || p.URL == "" {
				t.Errorf("%s: incomplete page %+v", s.Host, p)
			}
			if len(p.Truth) == 0 {
				t.Errorf("%s/%s: no rendered pairs", s.Host, p.URL)
			}
		}
	}
}

// testSiteConfig is a moderate site configuration: the generator's
// default counts, 4 sites a class of 12 pages with 10 rows.
var testSiteConfig = SiteConfig{Seed: 1, ValueErrorRate: 0.1, NoiseNodes: 6, JitterProb: 0.25, GeneralizeProb: 0.2}

func TestGeneratedPagesParse(t *testing.T) {
	w := testWorld()
	sites := GenerateSites(w, testSiteConfig)
	for _, s := range sites[:4] {
		for _, p := range s.Pages {
			doc := htmldom.Parse(p.HTML)
			h1 := doc.Find("h1")
			if h1 == nil {
				t.Fatalf("%s%s: no h1", s.Host, p.URL)
			}
			if got := h1.InnerText(); got != p.Entity {
				t.Errorf("%s%s: h1 = %q, want %q", s.Host, p.URL, got, p.Entity)
			}
			// Every rendered pair's label and value must appear as text.
			text := doc.InnerText()
			for _, pair := range p.Truth {
				if !strings.Contains(text, pair.Value) {
					t.Errorf("%s%s: value %q not on page", s.Host, p.URL, pair.Value)
				}
			}
		}
	}
}

func TestSiteStylesDiffer(t *testing.T) {
	w := testWorld()
	cfg := SiteConfig{Seed: 4, SitesPerClass: 4, PagesPerSite: 2, AttrsPerPage: 4}
	sites := GenerateSites(w, cfg)
	styles := map[string]bool{}
	for _, s := range sites {
		if s.Class == "Film" {
			styles[s.Style] = true
		}
	}
	if len(styles) != 4 {
		t.Fatalf("Film sites use %d styles, want 4: %v", len(styles), styles)
	}
	// Structural check: a table site has <th>, a dl site has <dt>.
	for _, s := range sites {
		doc := htmldom.Parse(s.Pages[0].HTML)
		switch s.Style {
		case "table":
			if doc.Find("th") == nil {
				t.Errorf("%s: table style lacks th", s.Host)
			}
		case "dl":
			if doc.Find("dt") == nil {
				t.Errorf("%s: dl style lacks dt", s.Host)
			}
		case "ul":
			if doc.Find("li") == nil {
				t.Errorf("%s: ul style lacks li", s.Host)
			}
		case "divgrid":
			if !slices.ContainsFunc(doc.FindAll("div"), func(d *htmldom.Node) bool {
				class, _ := d.Attr("class")
				return class == "row"
			}) {
				t.Errorf("%s: divgrid style lacks rows", s.Host)
			}
		}
	}
}

func TestValueErrorRateRoughlyHolds(t *testing.T) {
	w := testWorld()
	cfg := SiteConfig{Seed: 9, SitesPerClass: 4, PagesPerSite: 15, AttrsPerPage: 10, ValueErrorRate: 0.2}
	sites := GenerateSites(w, cfg)
	total, wrong := 0, 0
	for _, s := range sites {
		for _, p := range s.Pages {
			for _, pair := range p.Truth {
				total++
				if !pair.Correct {
					wrong++
				}
			}
		}
	}
	rate := float64(wrong) / float64(total)
	if rate < 0.12 || rate > 0.28 {
		t.Errorf("error rate = %.3f over %d pairs, want ~0.2", rate, total)
	}
}

func TestWrongValuesAreActuallyWrong(t *testing.T) {
	w := testWorld()
	sites := GenerateSites(w, SiteConfig{Seed: 7, SitesPerClass: 2, PagesPerSite: 10, AttrsPerPage: 8, ValueErrorRate: 0.5})
	checked := 0
	for _, s := range sites {
		for _, p := range s.Pages {
			e, ok := w.Entity(p.Entity)
			if !ok {
				t.Fatalf("unknown entity %q", p.Entity)
			}
			for _, pair := range p.Truth {
				if pair.Correct {
					if !w.IsTrue(e, pair.Attr, pair.Value) {
						t.Errorf("pair marked correct but false: %s/%s = %q", p.Entity, pair.Attr, pair.Value)
					}
				} else {
					checked++
					if pair.Value == e.Value(pair.Attr) {
						t.Errorf("pair marked wrong but matches truth: %s/%s = %q", p.Entity, pair.Attr, pair.Value)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no wrong pairs generated at 0.5 error rate")
	}
}

func TestGenerateSitesDeterministic(t *testing.T) {
	cfg := testSiteConfig
	a := GenerateSites(testWorld(), cfg)
	b := GenerateSites(testWorld(), cfg)
	if len(a) != len(b) {
		t.Fatal("site counts differ")
	}
	for i := range a {
		if a[i].Host != b[i].Host || len(a[i].Pages) != len(b[i].Pages) {
			t.Fatalf("site %d differs", i)
		}
		for j := range a[i].Pages {
			if a[i].Pages[j].HTML != b[i].Pages[j].HTML {
				t.Fatalf("page %d/%d differs", i, j)
			}
		}
	}
}

func TestGenerateCorpusShape(t *testing.T) {
	w := testWorld()
	cfg := TextConfig{Seed: 4, DocsPerClass: 3, FactsPerDoc: 5, ValueErrorRate: 0.1, DistractorShare: 0.5}
	docs := GenerateCorpus(w, cfg)
	if len(docs) != 5*3 {
		t.Fatalf("got %d docs, want 15", len(docs))
	}
	for _, d := range docs {
		if d.Text == "" || d.ID == "" || d.Source == "" {
			t.Errorf("incomplete doc %+v", d)
		}
		if len(d.Truth) == 0 {
			t.Errorf("%s: no facts", d.ID)
		}
		for _, f := range d.Truth {
			if !strings.Contains(d.Text, f.Value) {
				t.Errorf("%s: value %q not in text", d.ID, f.Value)
			}
			if !strings.Contains(d.Text, f.Entity) {
				t.Errorf("%s: entity %q not in text", d.ID, f.Entity)
			}
		}
	}
}

func TestCorpusFactSentencesMatchPatterns(t *testing.T) {
	w := testWorld()
	docs := GenerateCorpus(w, TextConfig{Seed: 8, DocsPerClass: 2, FactsPerDoc: 6})
	for _, d := range docs {
		for _, f := range d.Truth {
			found := false
			for _, pat := range sentencePatterns {
				if strings.Contains(d.Text, pat(f.Entity, f.Attr, f.Value)) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: fact %v not rendered by any pattern", d.ID, f)
			}
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	// The default counts: 10 documents a class of 12 facts.
	cfg := TextConfig{Seed: 1, ValueErrorRate: 0.12, DistractorShare: 0.8, GeneralizeProb: 0.2}
	a := GenerateCorpus(testWorld(), cfg)
	b := GenerateCorpus(testWorld(), cfg)
	if len(a) != len(b) {
		t.Fatal("doc counts differ")
	}
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatalf("doc %d differs", i)
		}
	}
}

func TestLabelText(t *testing.T) {
	if got := labelText("release date"); got != "Release Date:" {
		t.Errorf("labelText = %q", got)
	}
	if got := labelText("gdp"); got != "Gdp:" {
		t.Errorf("labelText = %q", got)
	}
}

// TestGenerateSitesAllocationBound pins page rendering's allocation
// behaviour: a page is a handful of string concatenations per row plus the
// builder's growth. Building the HTML escaper inside esc — one
// strings.Replacer per escaped string — cost ~325 allocations per page on
// this fixture; with the escaper hoisted it is ~101, and 130 is that plus
// 25%.
func TestGenerateSitesAllocationBound(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 5, EntitiesPerClass: 25, AttrsPerEntity: 14})
	cfg := testSiteConfig
	pages := 0
	for _, s := range GenerateSites(w, cfg) {
		pages += len(s.Pages)
	}
	allocs := testing.AllocsPerRun(10, func() { GenerateSites(w, cfg) })
	if limit := float64(130 * pages); allocs > limit {
		t.Errorf("GenerateSites allocates %.0f times for %d pages, want <= %.0f", allocs, pages, limit)
	}
}
