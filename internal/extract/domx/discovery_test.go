package domx

import (
	"context"
	"testing"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/webgen"
)

// partialIndex covers only the first half of each class's entities, leaving
// the rest for discovery.
func partialIndex(w *kb.World) *extract.EntityIndex {
	fb := kb.GenerateFreebase(w, kb.KBGenConfig{Seed: 5, Coverage: 0.5})
	return extract.NewEntityIndex(fb)
}

func TestDiscoverOnSiteHarvestsUnknownEntities(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 5, EntitiesPerClass: 25, AttrsPerEntity: 14})
	gen := webgen.GenerateSites(w, webgen.SiteConfig{
		Seed: 5, SitesPerClass: 3, PagesPerSite: 12, AttrsPerPage: 8,
		ValueErrorRate: 0.05, NoiseNodes: 4,
	})
	idx := partialIndex(w)
	seeds := map[string]extract.AttrSet{}
	for _, cls := range w.Ontology.ClassNames() {
		s := extract.NewAttrSet()
		for i, a := range w.Ontology.Class(cls).AttributeNames() {
			if i == 6 {
				break
			}
			s.Add(a, "seed")
		}
		seeds[cls] = s
	}
	cfg := DefaultConfig()
	cfg.DiscoverEntities = true
	res := Extract(context.Background(), FromWebgen(gen), idx, seeds, cfg, confidence.Default())
	if len(res.NewEntityFacts) == 0 {
		t.Fatal("no new-entity facts at 50% coverage")
	}
	for _, f := range res.NewEntityFacts {
		// The candidate must be a real world entity of the site's class and
		// genuinely unknown to the index.
		e, ok := w.Entity(f.Name)
		if !ok {
			t.Errorf("candidate %q is not a world entity", f.Name)
			continue
		}
		if e.Class != f.Class {
			t.Errorf("candidate %q class %q, want %q", f.Name, f.Class, e.Class)
		}
		if _, known := idx.Class(f.Name); known {
			t.Errorf("candidate %q is already known", f.Name)
		}
		if f.Attr == "" || f.Value == "" {
			t.Errorf("incomplete fact %+v", f)
		}
	}
	// Disabled mode harvests nothing.
	cfg.DiscoverEntities = false
	res2 := Extract(context.Background(), FromWebgen(gen), idx, seeds, cfg, nil)
	if len(res2.NewEntityFacts) != 0 {
		t.Error("facts harvested with discovery disabled")
	}
}

func TestPlausibleEntityName(t *testing.T) {
	cases := map[string]bool{
		"Casablanca":          true,
		"University of Foo 3": true,
		"42nd Street":         true,
		"advertisement":       false,
		"ab":                  false,
		"One Two Three Four Five Six Seven Eight Nine": false,
	}
	for in, want := range cases {
		if got := plausibleEntityName(in); got != want {
			t.Errorf("plausibleEntityName(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestResultClasses(t *testing.T) {
	res := &Result{PerClass: map[string]*ClassResult{"B": {}, "A": {}}}
	got := res.Classes()
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Classes = %v", got)
	}
}
