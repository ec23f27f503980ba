package rdf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNTriplesRoundTrip(t *testing.T) {
	ts := []Triple{
		T(IRI("http://x/s"), IRI("http://x/p"), IRI("http://x/o")),
		T(IRI("http://x/s"), IRI("http://x/p"), Literal("plain value")),
		T(Blank("b0"), IRI("http://x/p"), Literal(`quoted "text" and \ backslash`)),
		T(IRI("http://x/s"), IRI("http://x/p"), Literal("line1\nline2\ttabbed")),
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, ts); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	got, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if len(got) != len(ts) {
		t.Fatalf("got %d triples, want %d", len(got), len(ts))
	}
	for i := range ts {
		if got[i] != ts[i] {
			t.Errorf("triple %d: got %v, want %v", i, got[i], ts[i])
		}
	}
}

func TestReadNTriplesSkipsCommentsAndBlanks(t *testing.T) {
	in := `# a comment

<http://x/s> <http://x/p> "v" .
   # indented comment
<http://x/s2> <http://x/p> "v2" .
`
	ts, err := ReadNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d triples, want 2", len(ts))
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	bad := []string{
		`<http://x/s> <http://x/p> "v"`,                                               // missing dot
		`<http://x/s <http://x/p> "v" .`,                                              // unterminated IRI
		`<http://x/s> <http://x/p> "unterminated .`,                                   // unterminated literal
		`<http://x/s> <http://x/p> "v"@en .`,                                          // language-tagged literal
		`<http://x/s> <http://x/p> "v"^^<http://www.w3.org/2001/XMLSchema#integer> .`, // typed literal
		`<http://x/s> .`,       // too few terms
		`% <http://x/p> "v" .`, // junk first char
	}
	for _, in := range bad {
		// Every refusal names the line, here the second.
		if _, err := ReadNTriples(strings.NewReader("# header\n" + in)); err == nil {
			t.Errorf("accepted malformed input %q", in)
		} else if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("refused %q with %q, which does not name line 2", in, err)
		}
	}
}

func TestNTriplesRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(n%20) + 1
		ts := make([]Triple, k)
		for i := range ts {
			s := randomTerm(r)
			for s.IsLiteral() {
				s = randomTerm(r)
			}
			p := IRI("http://t.example/p" + string(rune('a'+r.Intn(5))))
			ts[i] = T(s, p, randomTerm(r))
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, ts); err != nil {
			return false
		}
		got, err := ReadNTriples(&buf)
		if err != nil || len(got) != len(ts) {
			return false
		}
		for i := range ts {
			if got[i] != ts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
