package rdf

import (
	"math"
	"strings"
	"testing"
)

// FuzzReadNTriples asserts the two readers never panic, and that anything
// one accepts round-trips through its writer: triples exactly; statements
// in triple and provenance exactly and in confidence to the six decimals
// written, every one of them Valid.
func FuzzReadNTriples(f *testing.F) {
	seeds := []string{
		"<http://x/s> <http://x/p> \"v\" .",
		"<http://x/s> <http://x/p> <http://x/o> .",
		"_:b0 <http://x/p> \"v\"@en .",
		"<http://x/s> <http://x/p> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
		"# comment\n\n<http://x/s> <http://x/p> \"esc\\\"aped\" .",
		"malformed",
		"<unterminated",
		"\"just a literal\" .",
		// The writer used to drop xsd:string, so this one was accepted and
		// came back another term.
		"<http://x/s> <http://x/p> \"v\"^^<http://www.w3.org/2001/XMLSchema#string> .",
		"<http://x/s> <http://x/p> \"v\" <http://akb.example.org/prov/a%20b/domx/%2Fpage> . # conf=0.840000",
		"_:b <http://x/p> <http://x/o> <http://akb.example.org/prov/w/x/> . # conf=NaN",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fuzzNQuads(t, src)
		ts, err := ReadNTriples(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := WriteNTriples(&buf, ts); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := ReadNTriples(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-read of own output failed: %v\noutput: %q", err, buf.String())
		}
		if len(back) != len(ts) {
			t.Fatalf("round trip changed count: %d -> %d", len(ts), len(back))
		}
		for i := range ts {
			if back[i] != ts[i] {
				t.Fatalf("round trip changed triple %d: %v -> %v", i, ts[i], back[i])
			}
		}
	})
}

func fuzzNQuads(t *testing.T, src string) {
	stmts, err := ReadNQuads(strings.NewReader(src))
	if err != nil {
		return
	}
	for _, s := range stmts {
		if err := s.Valid(); err != nil {
			t.Fatalf("accepted a statement that is not valid: %v", err)
		}
	}
	var buf strings.Builder
	if err := WriteNQuads(&buf, stmts); err != nil {
		t.Fatalf("write after successful read: %v", err)
	}
	back, err := ReadNQuads(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-read of own output failed: %v\noutput: %q", err, buf.String())
	}
	if len(back) != len(stmts) {
		t.Fatalf("round trip changed count: %d -> %d", len(stmts), len(back))
	}
	for i, s := range stmts {
		b := back[i]
		if b.Triple != s.Triple || b.Provenance != s.Provenance || math.Abs(b.Confidence-s.Confidence) > 5e-7 {
			t.Fatalf("round trip changed statement %d: %v -> %v", i, s, b)
		}
	}
}
