package rdf

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func tri(s, p, o string) Triple {
	return T(AKB.IRI(s), AKB.IRI(p), Literal(o))
}

func TestStatementValid(t *testing.T) {
	good := S(tri("s", "p", "o"), Provenance{Source: "w", Extractor: "x"}, 0.5)
	if err := good.Valid(); err != nil {
		t.Errorf("valid statement rejected: %v", err)
	}
	bad := []Statement{
		S(T(Literal("s"), AKB.IRI("p"), Literal("o")), Provenance{}, 0.5),
		S(T(AKB.IRI("s"), Literal("p"), Literal("o")), Provenance{}, 0.5),
		S(tri("s", "p", "o"), Provenance{}, 1.5),
		S(tri("s", "p", "o"), Provenance{}, -0.1),
		S(tri("s", "p", "o"), Provenance{}, math.NaN()),
		S(tri("s", "p", "o"), Provenance{}, math.Inf(1)),
		S(tri("s", "p", "o"), Provenance{}, math.Inf(-1)),
		S(T(IRI(""), AKB.IRI("p"), Literal("o")), Provenance{}, 0.5),
	}
	for i, s := range bad {
		if err := s.Valid(); err == nil {
			t.Errorf("bad statement %d accepted", i)
		}
	}
}

func TestProvenanceKeys(t *testing.T) {
	p := Provenance{Source: "imdb.example", Extractor: "domx", Document: "page7"}
	q := p
	q.Document = ""
	if p.Key() == q.Key() {
		t.Error("Key must tell two documents of one source and extractor apart")
	}
	if p.String() == "" || q.String() == "" {
		t.Error("String must be non-empty")
	}
}

func TestTripleItemKey(t *testing.T) {
	a := tri("s", "p", "o1")
	b := tri("s", "p", "o2")
	c := tri("s", "q", "o1")
	if a.ItemKey() != b.ItemKey() {
		t.Error("same (s,p) must share ItemKey")
	}
	if a.ItemKey() == c.ItemKey() {
		t.Error("different predicates must not share ItemKey")
	}
}

// TestCompareItemKeysMatchesStrings: on random triples over an alphabet of
// the bytes around '|' and the kind bytes, with values that are often
// prefixes of one another or empty and kinds outside the three,
// CompareItemKeys and CompareItemKey answer what strings.Compare answers for
// the spelled keys.
func TestCompareItemKeysMatchesStrings(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const alphabet = "|_ a~\xffilb"
	term := func() Term {
		v := make([]byte, r.Intn(4))
		for k := range v {
			v[k] = alphabet[r.Intn(len(alphabet))]
		}
		return Term{Kind: TermKind(r.Intn(4)), Value: string(v)}
	}
	for n := 0; n < 20000; n++ {
		a, b := Triple{Subject: term(), Predicate: term()}, Triple{Subject: term(), Predicate: term()}
		if r.Intn(3) == 0 {
			b.Subject = a.Subject
		}
		want := strings.Compare(a.ItemKey(), b.ItemKey())
		if got := CompareItemKeys(&a, &b); got != want {
			t.Fatalf("CompareItemKeys(%q, %q) = %d, want %d", a.ItemKey(), b.ItemKey(), got, want)
		}
		if got := a.CompareItemKey(b.ItemKey()); got != want {
			t.Fatalf("CompareItemKey(%q, %q) = %d, want %d", a.ItemKey(), b.ItemKey(), got, want)
		}
	}
}
