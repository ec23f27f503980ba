package rdf

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestTermConstructors: every spelling of a term in N-Triples is either what
// a constructor's term renders as and parses back to, or — a literal with a
// datatype or a language tag, which a Term cannot hold — refused.
func TestTermConstructors(t *testing.T) {
	const xsd = "http://www.w3.org/2001/XMLSchema#"
	tests := []struct {
		name    string
		src     string
		want    Term
		refused bool
	}{
		{name: "iri", src: "<http://x/a>", want: IRI("http://x/a")},
		{name: "plain literal", src: `"hello"`, want: Literal("hello")},
		{name: "blank", src: "_:b0", want: Blank("b0")},
		{name: "typed literal", src: `"3"^^<http://x/dt>`, refused: true},
		{name: "lang literal", src: `"bonjour"@fr`, refused: true},
		{name: "integer", src: `"42"^^<` + xsd + `integer>`, refused: true},
		{name: "bool", src: `"true"^^<` + xsd + `boolean>`, refused: true},
		// The old writer dropped xsd:string, so this one came back changed.
		{name: "xsd string elided", src: `"s"^^<` + xsd + `string>`, refused: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := (&ntParser{s: tc.src}).term()
			if tc.refused {
				if err == nil {
					t.Fatalf("%s parsed as %#v, want it refused", tc.src, got)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Errorf("%s parsed as %#v (%v), want %#v", tc.src, got, err, tc.want)
			}
			if got := tc.want.String(); got != tc.src {
				t.Errorf("String() = %q, want %q", got, tc.src)
			}
		})
	}
}

// TestTermWidth holds the term and the statement to the widths the pipe's
// slices, copies and map keys are sized by: a kind and one string.
func TestTermWidth(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("widths are stated for 64-bit")
	}
	if got := unsafe.Sizeof(Term{}); got != 24 {
		t.Errorf("a Term is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Statement{}); got != 128 {
		t.Errorf("a Statement is %d bytes, want 128", got)
	}
}

func TestTermPredicates(t *testing.T) {
	if !IRI("http://x").IsIRI() || IRI("http://x").IsLiteral() || IRI("http://x").IsBlank() {
		t.Error("IRI kind predicates wrong")
	}
	if !Literal("v").IsLiteral() {
		t.Error("Literal not IsLiteral")
	}
	if !Blank("b").IsBlank() {
		t.Error("Blank not IsBlank")
	}
}

func TestTermIsZero(t *testing.T) {
	var zero Term
	if !zero.IsZero() {
		t.Error("zero Term should be IsZero")
	}
	if IRI("x").IsZero() || Literal("").IsZero() == true && false {
		t.Error("non-zero term reported zero")
	}
	// A plain empty literal is NOT the wildcard.
	if Literal("").IsZero() {
		// Literal("") has Kind KindLiteral, so it is not zero.
		t.Error("empty literal must not be the wildcard")
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{
		"plain",
		`with "quotes"`,
		"tab\tand\nnewline",
		`back\slash`,
		"\r carriage",
		"",
		"unicode: 日本語",
	}
	for _, s := range cases {
		if got := unescapeLiteral(escapeLiteral(s)); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		return unescapeLiteral(escapeLiteral(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTermKeyUniqueness(t *testing.T) {
	terms := []Term{
		IRI("a"), Literal("a"), Blank("a"),
		IRI("b"), Literal("b"),
	}
	seen := map[string]Term{}
	for _, tm := range terms {
		k := tm.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision between %v and %v", prev, tm)
		}
		seen[k] = tm
	}
}

func TestTermCompare(t *testing.T) {
	ordered := []Term{
		IRI("a"), IRI("b"),
		Literal("a"), Literal("b"),
		Blank("a"),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestTermKindString(t *testing.T) {
	if KindIRI.String() != "iri" || KindLiteral.String() != "literal" || KindBlank.String() != "blank" {
		t.Error("TermKind.String wrong")
	}
	if got := TermKind(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestNamespaceIRI(t *testing.T) {
	got := AKB.IRI("Barack Obama")
	want := "http://akb.example.org/Barack_Obama"
	if got.Value != want {
		t.Errorf("Namespace.IRI = %q, want %q", got.Value, want)
	}
}

func TestLocalName(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{IRI("http://x/path/Name"), "Name"},
		{IRI("http://x/ns#frag"), "frag"},
		{IRI("bare"), "bare"},
		{Literal("lit"), "lit"},
	}
	for _, tc := range tests {
		if got := LocalName(tc.term); got != tc.want {
			t.Errorf("LocalName(%v) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

// randomTerm generates arbitrary printable terms for property tests.
func randomTerm(r *rand.Rand) Term {
	alphabet := "abcdefghijklmnopqrstuvwxyz0123456789"
	word := func(n int) string {
		b := make([]byte, 1+r.Intn(n))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	switch r.Intn(3) {
	case 0:
		return IRI("http://t.example/" + word(12))
	case 1:
		return Literal(word(16))
	default:
		return Blank(word(6))
	}
}

// Generate lets testing/quick produce random Terms.
func (Term) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomTerm(r))
}

func TestCompareIsAntisymmetricProperty(t *testing.T) {
	f := func(a, b Term) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestKeyEqualityMatchesTermEqualityProperty: Key is injective. Every pair
// of terms over every kind and every value of up to two bytes — NUL and
// \x01 (which once set a datatype and a language tag off from the value),
// the item key's '|' and the kind bytes themselves among them — has one key
// exactly when the two are one term.
func TestKeyEqualityMatchesTermEqualityProperty(t *testing.T) {
	const alphabet = "a|\x00\x01il"
	values := []string{""}
	for i := range alphabet {
		values = append(values, alphabet[i:i+1])
		for j := range alphabet {
			values = append(values, alphabet[i:i+1]+alphabet[j:j+1])
		}
	}
	var terms []Term
	for _, v := range values {
		terms = append(terms, IRI(v), Literal(v), Blank(v))
	}
	for _, a := range terms {
		for _, b := range terms {
			if (a == b) != (a.Key() == b.Key()) {
				t.Fatalf("%#v and %#v: equal %v, keys %q and %q", a, b, a == b, a.Key(), b.Key())
			}
		}
	}
}
