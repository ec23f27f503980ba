package temporalx

import (
	"testing"

	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/webgen"
)

func setup(t *testing.T) (*kb.World, []*webgen.Document, *extract.EntityIndex) {
	t.Helper()
	w := kb.NewWorld(kb.WorldConfig{Seed: 14, EntitiesPerClass: 20, AttrsPerEntity: 12})
	docs := webgen.GenerateCorpus(w, webgen.TextConfig{
		Seed: 14, DocsPerClass: 10, FactsPerDoc: 4,
		ValueErrorRate: 0.1, DistractorShare: 0.4, TemporalFacts: 6,
	})
	return w, docs, extract.NewEntityIndexFromWorld(w)
}

func TestWorldHasTimelines(t *testing.T) {
	w, _, _ := setup(t)
	found := 0
	for _, cls := range []string{"Country", "University", "Hotel"} {
		for _, e := range w.EntitiesOf(cls) {
			for _, tl := range e.Timelines {
				attr, spans := tl.Attr, tl.Spans
				found++
				if len(spans) < 2 {
					t.Errorf("%s/%s: timeline too short: %v", e.Name, attr, spans)
				}
				// Spans are consecutive and end at the present.
				for i := 1; i < len(spans); i++ {
					if spans[i].From != spans[i-1].To+1 {
						t.Errorf("%s/%s: gap between spans %v", e.Name, attr, spans)
					}
				}
				if spans[len(spans)-1].To != 2015 {
					t.Errorf("%s/%s: timeline does not reach present: %v", e.Name, attr, spans)
				}
				// Current value mirrors the last span.
				if e.Value(attr) != spans[len(spans)-1].Value {
					t.Errorf("%s/%s: current value %q != last span %q",
						e.Name, attr, e.Value(attr), spans[len(spans)-1].Value)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no timelines generated")
	}
}

func TestExtractTextFindsTemporalFacts(t *testing.T) {
	w, docs, idx := setup(t)
	stmts := ExtractText(docs, idx)
	if len(stmts) == 0 {
		t.Fatal("no temporal statements extracted")
	}
	correctYears, totalYears := 0, 0
	for _, s := range stmts {
		e, ok := w.Entity(s.Entity)
		if !ok {
			t.Fatalf("unknown entity %q", s.Entity)
		}
		if s.From > s.To || !plausibleYear(s.From) {
			t.Errorf("bad span %+v", s)
		}
		for y := s.From; y <= s.To; y++ {
			totalYears++
			if e.ValueAt(s.Attr, y) == s.Value {
				correctYears++
			}
		}
	}
	acc := float64(correctYears) / float64(totalYears)
	if acc < 0.8 {
		t.Errorf("raw extraction year accuracy = %.3f (corpus error 10%%)", acc)
	}
}

func TestMatchTemporalForms(t *testing.T) {
	w, _, idx := setup(t)
	e := w.EntityNames("Country")[0]
	uni := w.EntityNames("University")[0]
	cases := []struct {
		sent string
		ok   bool
		from int
		to   int
		attr string
	}{
		{"Jane Doe was the head of state of " + e + " from 1990 to 1999.", true, 1990, 1999, "head of state"},
		{"Jane Doe has been the head of state of " + e + " since 2004.", true, 2004, PresentYear, "head of state"},
		{"John Roe was the chancellor of " + uni + " from 1971 to 1980.", true, 1971, 1980, "chancellor"},
		{"Jane Doe was the head of state of Atlantis from 1990 to 1999.", false, 0, 0, ""},
		{"Jane Doe was the head of state of " + e + " from 1999 to 1990.", false, 0, 0, ""}, // reversed
		{"Jane Doe was the head of state of " + e + " from then to now.", false, 0, 0, ""},
		{"Just a plain sentence.", false, 0, 0, ""},
	}
	for _, c := range cases {
		st, ok := matchTemporal(c.sent, idx)
		if ok != c.ok {
			t.Errorf("matchTemporal(%q) ok = %v, want %v", c.sent, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if st.From != c.from || st.To != c.to || st.Attr != c.attr {
			t.Errorf("matchTemporal(%q) = %+v", c.sent, st)
		}
	}
}

func TestFuseTimelinesMajority(t *testing.T) {
	stmts := []Statement{
		// Two sources agree on the early span; one noisy source disagrees.
		{Entity: "E", Attr: "head of state", Value: "Alice", From: 1990, To: 1999, Source: "s1"},
		{Entity: "E", Attr: "head of state", Value: "Alice", From: 1990, To: 1999, Source: "s2"},
		{Entity: "E", Attr: "head of state", Value: "Mallory", From: 1990, To: 1999, Source: "s3"},
		{Entity: "E", Attr: "head of state", Value: "Bob", From: 2000, To: 2015, Source: "s1"},
	}
	tls := FuseTimelines(stmts)
	if len(tls) != 1 {
		t.Fatalf("timelines = %d", len(tls))
	}
	tl := tls[0]
	if len(tl.Spans) != 2 {
		t.Fatalf("spans = %v", tl.Spans)
	}
	if tl.Spans[0].Value != "Alice" || tl.Spans[0].From != 1990 || tl.Spans[0].To != 1999 {
		t.Errorf("span 0 = %+v", tl.Spans[0])
	}
	if tl.Spans[1].Value != "Bob" || tl.Spans[1].To != 2015 {
		t.Errorf("span 1 = %+v", tl.Spans[1])
	}
}

func TestFuseTimelinesOverlapResolution(t *testing.T) {
	stmts := []Statement{
		{Entity: "E", Attr: "owner", Value: "Alice", From: 1990, To: 2005, Source: "s1"},
		{Entity: "E", Attr: "owner", Value: "Bob", From: 2000, To: 2015, Source: "s2"},
		{Entity: "E", Attr: "owner", Value: "Bob", From: 2000, To: 2015, Source: "s3"},
	}
	tls := FuseTimelines(stmts)
	tl := tls[0]
	// In the overlap (2000-2005) Bob has two sources vs Alice's one.
	if len(tl.Spans) != 2 {
		t.Fatalf("spans = %v", tl.Spans)
	}
	if tl.Spans[0].Value != "Alice" || tl.Spans[0].To != 1999 {
		t.Errorf("span 0 = %+v", tl.Spans[0])
	}
	if tl.Spans[1].Value != "Bob" || tl.Spans[1].From != 2000 {
		t.Errorf("span 1 = %+v", tl.Spans[1])
	}
}

func TestEndToEndTemporalAccuracy(t *testing.T) {
	w, docs, idx := setup(t)
	stmts := ExtractText(docs, idx)
	tls := FuseTimelines(stmts)
	if len(tls) == 0 {
		t.Fatal("no fused timelines")
	}
	correct, total := Accuracy(w, tls)
	if total == 0 {
		t.Fatal("no years scored")
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Errorf("fused timeline accuracy = %.3f (%d/%d)", acc, correct, total)
	}
}

func TestFuseTimelinesDeterministic(t *testing.T) {
	_, docs, idx := setup(t)
	a := FuseTimelines(ExtractText(docs, idx))
	b := FuseTimelines(ExtractText(docs, idx))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Entity != b[i].Entity || len(a[i].Spans) != len(b[i].Spans) {
			t.Fatalf("timeline %d differs", i)
		}
		for j := range a[i].Spans {
			if a[i].Spans[j] != b[i].Spans[j] {
				t.Fatalf("span %d/%d differs", i, j)
			}
		}
	}
}
