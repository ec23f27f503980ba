package qsx

import (
	"context"
	"testing"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/querystream"
)

func world() *kb.World {
	return kb.NewWorld(kb.WorldConfig{Seed: 2, EntitiesPerClass: 20, AttrsPerEntity: 12})
}

func streamConfig() querystream.GenConfig {
	return querystream.GenConfig{
		Seed:         2,
		TotalRecords: 6000,
		Plans: []querystream.ClassPlan{
			{Class: "Book", Relevant: 300, Credible: 10, NoncrediblePool: 8},
			{Class: "Film", Relevant: 400, Credible: 6, NoncrediblePool: 10},
			{Class: "Country", Relevant: 350, Credible: 15, NoncrediblePool: 10},
			{Class: "University", Relevant: 80, Credible: 4, NoncrediblePool: 6},
			{Class: "Hotel", Relevant: 40, Credible: 0, NoncrediblePool: 15},
		},
	}
}

func runExtraction(t *testing.T) (*kb.World, querystream.GenConfig, *Result) {
	t.Helper()
	w := world()
	cfg := streamConfig()
	stream := querystream.Generate(w, cfg)
	idx := extract.NewEntityIndexFromWorld(w)
	res := Extract(context.Background(), stream, idx, confidence.Default())
	return w, cfg, res
}

func TestExtractRelevantCounts(t *testing.T) {
	_, cfg, res := runExtraction(t)
	for _, plan := range cfg.Plans {
		cr := res.PerClass[plan.Class]
		if cr == nil {
			t.Fatalf("no result for %s", plan.Class)
		}
		if cr.RelevantRecords != plan.Relevant {
			t.Errorf("%s relevant = %d, want %d", plan.Class, cr.RelevantRecords, plan.Relevant)
		}
	}
}

func TestExtractCredibleCounts(t *testing.T) {
	_, cfg, res := runExtraction(t)
	for _, plan := range cfg.Plans {
		cr := res.PerClass[plan.Class]
		if got := cr.Credible.Len(); got != plan.Credible {
			t.Errorf("%s credible = %d, want %d (support=%v)", plan.Class, got, plan.Credible, len(cr.Support))
		}
	}
}

func TestExtractFiltersMeaningless(t *testing.T) {
	_, _, res := runExtraction(t)
	total := 0
	for _, cr := range res.PerClass {
		total += cr.Filtered
		for attr := range cr.Credible {
			if meaningless[attr] {
				t.Errorf("meaningless attribute %q survived filtering", attr)
			}
		}
	}
	if total == 0 {
		t.Error("no records filtered; generator plants ~5% meaningless mentions")
	}
}

func TestExtractConfidences(t *testing.T) {
	_, _, res := runExtraction(t)
	cr := res.PerClass["Book"]
	for attr, ev := range cr.Credible {
		if ev.Confidence <= 0 || ev.Confidence > confidence.MaxConfidence {
			t.Errorf("%s confidence = %g", attr, ev.Confidence)
		}
	}
}

func TestTable3Rendering(t *testing.T) {
	_, _, res := runExtraction(t)
	rows := res.Table3()
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	order := []string{"Book", "Film", "Country", "University", "Hotel"}
	for i, c := range order {
		if rows[i].Class != c {
			t.Errorf("row %d = %s, want %s", i, rows[i].Class, c)
		}
	}
	// Hotel yields N/A (-1), the paper's Table 3 result.
	if rows[4].CredibleAttrs != -1 {
		t.Errorf("Hotel credible = %d, want -1 (N/A)", rows[4].CredibleAttrs)
	}
	if rows[0].CredibleAttrs != 10 {
		t.Errorf("Book credible = %d, want 10", rows[0].CredibleAttrs)
	}
}

func TestMatchPatternForms(t *testing.T) {
	w := world()
	idx := extract.NewEntityIndexFromWorld(w)
	e := w.EntityNames("Film")[0]
	uni := w.EntityNames("University")[0] // contains " of "
	cases := []struct {
		q          string
		attr, ent  string
		shouldPass bool
	}{
		{"what is the director of " + e, "director", e, true},
		{"what is the director of the " + e, "director", e, true},
		{"who is the head of state of " + e, "head of state", e, true},
		{"the tuition of " + uni, "tuition", uni, true},
		{"what is the head of state of " + uni, "head of state", uni, true},
		{e + "'s budget", "budget", e, true},
		{uni + "'s motto", "motto", uni, true},
		{"what is the capital of Atlantis", "", "", false},
		{"download movies free", "", "", false},
		{e + " reviews", "", "", false},
		{"the  of " + e, "", e, true}, // empty attr matches but normalises away downstream
	}
	for _, c := range cases {
		attr, ent, ok := MatchPattern(c.q, idx)
		if ok != c.shouldPass {
			t.Errorf("MatchPattern(%q) ok = %v, want %v", c.q, ok, c.shouldPass)
			continue
		}
		if !ok {
			continue
		}
		if c.attr != "" && attr != c.attr {
			t.Errorf("MatchPattern(%q) attr = %q, want %q", c.q, attr, c.attr)
		}
		if ent != c.ent {
			t.Errorf("MatchPattern(%q) entity = %q, want %q", c.q, ent, c.ent)
		}
	}
}

func TestFailsFilterRules(t *testing.T) {
	cases := map[string]bool{
		"gdp":                   false,
		"ab":                    true, // too short
		"1942":                  true, // pure number
		"a b c d e f":           true, // too many words
		"head of state":         false,
		"total adjusted budget": false,
	}
	for attr, want := range cases {
		if got := failsFilterRules(attr); got != want {
			t.Errorf("failsFilterRules(%q) = %v, want %v", attr, got, want)
		}
	}
}

func TestMinEntitiesRule(t *testing.T) {
	w := world()
	idx := extract.NewEntityIndexFromWorld(w)
	films := w.EntityNames("Film")
	// Each case asks "director" about the first entities named: all of its
	// mentions about one film, or spread over two.
	credible := func(mentions, entities int) bool {
		var recs []querystream.Record
		for i := 0; i < mentions; i++ {
			recs = append(recs, querystream.Record{Text: "what is the director of " + films[i%entities], Origin: "google"})
		}
		res := Extract(context.Background(), &querystream.Stream{Records: recs}, idx, nil)
		return res.PerClass["Film"].Credible.Len() == 1
	}
	at := querystream.CredibleThreshold
	cases := []struct {
		mentions, entities int
		want               bool
	}{
		{2 * at, minEntities - 1, false}, // support passes, entity diversity fails
		{2 * at, minEntities, true},
		{at - 1, minEntities, false}, // one mention short of the threshold
		{at, minEntities, true},
	}
	for _, c := range cases {
		if got := credible(c.mentions, c.entities); got != c.want {
			t.Errorf("%d mentions over %d entities: credible = %v, want %v", c.mentions, c.entities, got, c.want)
		}
	}
}
