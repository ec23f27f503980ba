package rdf

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestNQuadsRoundTrip(t *testing.T) {
	stmts := []Statement{
		S(T(IRI("http://x/s"), IRI("http://x/p"), Literal("v")),
			Provenance{Source: "film-0.example.com", Extractor: "domx", Document: "/page-1"}, 0.84),
		S(T(IRI("http://x/s2"), IRI("http://x/p"), Literal("with spaces & stuff")),
			Provenance{Source: "query stream", Extractor: "qsx", Document: ""}, 0.5),
		S(T(IRI("http://x/s3"), IRI("http://x/p"), Blank("b7")),
			Provenance{Source: "a/b", Extractor: "kbx", Document: "d%e"}, 0.99),
	}
	var buf bytes.Buffer
	if err := WriteNQuads(&buf, stmts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNQuads(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(stmts) {
		t.Fatalf("count %d, want %d", len(back), len(stmts))
	}
	for i := range stmts {
		if back[i].Triple != stmts[i].Triple {
			t.Errorf("triple %d: %v != %v", i, back[i].Triple, stmts[i].Triple)
		}
		if back[i].Provenance != stmts[i].Provenance {
			t.Errorf("provenance %d: %+v != %+v", i, back[i].Provenance, stmts[i].Provenance)
		}
		if math.Abs(back[i].Confidence-stmts[i].Confidence) > 5e-7 {
			t.Errorf("confidence %d: %g != %g", i, back[i].Confidence, stmts[i].Confidence)
		}
	}
}

func TestProvenanceIRIRoundTrip(t *testing.T) {
	cases := []Provenance{
		{Source: "plain", Extractor: "domx", Document: "doc"},
		{Source: "with space", Extractor: "a/b", Document: ""},
		{Source: "pct%sign", Extractor: "x", Document: "a/b c"},
	}
	for _, p := range cases {
		got, ok := parseProvenanceIRI(provenanceIRI(p))
		if !ok || got != p {
			t.Errorf("round trip %+v -> %+v, ok=%v", p, got, ok)
		}
	}
	if _, ok := parseProvenanceIRI(IRI("http://other/graph")); ok {
		t.Error("foreign IRI parsed as provenance")
	}
	if _, ok := parseProvenanceIRI(Literal("x")); ok {
		t.Error("literal parsed as provenance")
	}
}

func TestReadNQuadsErrors(t *testing.T) {
	const graph = "<http://akb.example.org/prov/w/x/d>"
	bad := []string{
		`<http://x/s> <http://x/p> "v" . # conf=0.5`,                               // missing graph
		`<http://x/s> <http://x/p> "v" <http://other/g> . # conf=0.5`,              // foreign graph
		`<http://x/s> <http://x/p> "v" <http://akb.example.org/prov/a> # conf=0.5`, // malformed graph + no dot
		`<http://x/s> <http://x/p> "v"@en ` + graph + ` . # conf=0.5`,              // language-tagged literal
		`<http://x/s> <http://x/p> "v"^^<http://x/dt> ` + graph + ` . # conf=0.5`,  // typed literal
		`<http://x/s> <http://x/p> "v" ` + graph + ` .`,                            // no confidence
	}
	for _, conf := range []string{"abc", "", "NaN", "7.5", "-1", "+Inf", "0.5 and more"} {
		bad = append(bad, `<http://x/s> <http://x/p> "v" `+graph+` . # conf=`+conf)
	}
	for _, in := range bad {
		if _, err := ReadNQuads(strings.NewReader("# header\n" + in)); err == nil {
			t.Errorf("accepted %q", in)
		} else if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("refused %q with %q, which does not name line 2", in, err)
		}
	}
	for _, conf := range []string{"0", "1", "0.840000", "1e-3"} {
		if _, err := ReadNQuads(strings.NewReader(`<http://x/s> <http://x/p> "v" ` + graph + ` . # conf=` + conf)); err != nil {
			t.Errorf("confidence %s refused: %v", conf, err)
		}
	}
	// Comments and blank lines are fine.
	got, err := ReadNQuads(strings.NewReader("# header\n\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("comment handling: %v, %v", got, err)
	}
}
