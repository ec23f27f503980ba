package extract

import (
	"math/rand"
	"strings"
	"testing"

	"akb/internal/kb"
	"akb/internal/rdf"
)

func TestAttrSetAddAndEvidence(t *testing.T) {
	s := NewAttrSet()
	s.Add("director", "a")
	s.Add("director", "b")
	s.Add("director", "a")
	s.Add("genre", "")
	if !s.Has("director") || !s.Has("genre") || s.Has("absent") {
		t.Fatal("membership wrong")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	d := s["director"]
	if d.Support != 3 {
		t.Errorf("support = %d, want 3", d.Support)
	}
	if len(d.Sources) != 2 {
		t.Errorf("sources = %d, want 2", len(d.Sources))
	}
	if len(s["genre"].Sources) != 0 {
		t.Error("empty source should not be recorded")
	}
}

func TestAttrSetNamesSorted(t *testing.T) {
	s := NewAttrSet()
	for _, a := range []string{"zeta", "alpha", "mid"} {
		s.Add(a, "src")
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Errorf("Names = %v", names)
	}
}

func TestAttrSetUnion(t *testing.T) {
	a := NewAttrSet()
	a.Add("x", "s1")
	b := NewAttrSet()
	b.Add("x", "s2")
	b.Add("y", "s2")
	b["y"].Confidence = 0.7
	a.Union(b)
	if a.Len() != 2 {
		t.Fatalf("union Len = %d", a.Len())
	}
	if a["x"].Support != 2 || len(a["x"].Sources) != 2 {
		t.Errorf("union evidence wrong: %+v", a["x"])
	}
	if a["y"].Confidence != 0.7 {
		t.Errorf("union confidence = %g", a["y"].Confidence)
	}
}

func TestAttrSetCloneIsDeep(t *testing.T) {
	a := NewAttrSet()
	a.Add("x", "s1")
	c := a.Clone()
	c.Add("x", "s2")
	c.Add("y", "s1")
	if a.Len() != 1 || a["x"].Support != 1 || len(a["x"].Sources) != 1 {
		t.Error("clone mutated the original")
	}
}

func TestEntityIndex(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 1, EntitiesPerClass: 5, AttrsPerEntity: 8})
	idx := NewEntityIndexFromWorld(w)
	if idx.Len() != 25 {
		t.Fatalf("index Len = %d, want 25", idx.Len())
	}
	name := w.EntityNames("Film")[0]
	if c, ok := idx.Class(name); !ok || c != "Film" {
		t.Errorf("Class(%q) = %q, %v", name, c, ok)
	}
	if _, ok := idx.Class("nobody"); ok {
		t.Error("unknown entity resolved")
	}
	names := idx.Names()
	if len(names) != 25 {
		t.Errorf("Names = %d", len(names))
	}
}

func TestEntityIndexFromSourceKB(t *testing.T) {
	w := kb.NewWorld(kb.WorldConfig{Seed: 1, EntitiesPerClass: 10, AttrsPerEntity: 8})
	fb := kb.GenerateFreebase(w, kb.KBGenConfig{Seed: 1, Coverage: 0.5})
	idx := NewEntityIndex(fb)
	if idx.Len() == 0 || idx.Len() >= 50 {
		t.Fatalf("index Len = %d, want partial coverage", idx.Len())
	}
	for _, n := range fb.CoveredEntities["Book"] {
		if c, ok := idx.Class(n); !ok || c != "Book" {
			t.Errorf("covered entity %q missing from index", n)
		}
	}
}

func TestNormalizeLabel(t *testing.T) {
	cases := map[string]string{
		"Release Date:":  "release date",
		"  Director :":   "director", // trailing colon dropped even when space-separated
		"GENRE":          "genre",
		"star   rating:": "star rating",
		"":               "",
	}
	for in, want := range cases {
		if got := NormalizeLabel(in); got != want {
			t.Errorf("NormalizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestLabelHelpersMatchReference holds NormalizeLabel's fast path and the
// word count of ValidAttributeLabel to the strings.Fields forms they had.
func TestLabelHelpersMatchReference(t *testing.T) {
	for _, s := range []string{
		"", " ", "ab", "abc", "Release Date:", "  Director :", "a b c d e", "a b c d e f", "a  b\tc\nd e",
		"12345", "123 45", "1 2 3", "a\u00a0b c d e f", "\u00a0x\u00a0", "\u00c9 \u00c8:", "x\xffy z", "Total  Budget :",
	} {
		want := strings.Join(strings.Fields(strings.ToLower(strings.TrimSuffix(strings.TrimSpace(s), ":"))), " ")
		if got := NormalizeLabel(s); got != want {
			t.Errorf("NormalizeLabel(%q) = %q, want %q", s, got, want)
		}
		digits := 0
		for _, r := range s {
			if r >= '0' && r <= '9' {
				digits++
			}
		}
		valid := len(s) >= 3 && len(strings.Fields(s)) <= 5 && digits != len(s)
		if got := ValidAttributeLabel(s); got != valid {
			t.Errorf("ValidAttributeLabel(%q) = %v, want %v", s, got, valid)
		}
	}
}

// TestNamesRemembersAttrFromIRI: the per-call memo answers as AttrFromIRI
// does for every kind of term, and keeps IRIs apart from literals that
// spell the same.
func TestNamesRemembersAttrFromIRI(t *testing.T) {
	terms := []rdf.Term{
		AttrIRI("release date"), EntityIRI("Casa Blanca"), AttrIRI("release date"), AttrIRI("plain"),
		rdf.Literal(AttrIRI("release date").Value), rdf.Literal("a_b"), rdf.Blank("b_1"), rdf.IRI("no-separator_x"),
	}
	names := Names{}
	for round := 0; round < 2; round++ {
		for _, term := range terms {
			if got, want := names.Of(term), AttrFromIRI(term); got != want {
				t.Errorf("round %d: Names.Of(%v) = %q, AttrFromIRI %q", round, term, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { names.Of(terms[0]) }); allocs != 0 {
		t.Errorf("a remembered IRI cost %.0f allocations", allocs)
	}
}

// levenshtein is the full rune-level table WithinDistance bounds.
func levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	d := make([][]int, len(ra)+1)
	for i := range d {
		d[i] = make([]int, len(rb)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			sub := d[i-1][j-1]
			if ra[i-1] != rb[j-1] {
				sub++
			}
			d[i][j] = min(d[i-1][j]+1, d[i][j-1]+1, sub)
		}
	}
	return d[len(ra)][len(rb)]
}

// TestWithinDistanceMatchesLevenshtein: for strings of ASCII, multi-byte and
// invalid runes, short and past the stack table, WithinDistance answers
// whether the full table's distance is within the budget, negative budgets
// included.
func TestWithinDistanceMatchesLevenshtein(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	alphabet := []string{"a", "b", " ", "é", "–", "日", "\xff"}
	word := func() string {
		var b strings.Builder
		for n := r.Intn(8) + r.Intn(2)*r.Intn(90); n > 0; n-- {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	for round := 0; round < 3000; round++ {
		a, b := word(), word()
		if r.Intn(3) == 0 { // a near copy of a
			rs := []rune(a)
			if len(rs) > 0 {
				rs[r.Intn(len(rs))] = '–'
			}
			b = string(rs) + alphabet[r.Intn(len(alphabet))]
		}
		d := levenshtein(a, b)
		for max := -1; max <= 4; max++ {
			if got := WithinDistance(a, b, max); got != (d <= max) {
				t.Fatalf("WithinDistance(%q, %q, %d) = %v, distance %d", a, b, max, got, d)
			}
		}
		if !WithinDistance(a, b, d) || (d > 0 && WithinDistance(a, b, d-1)) {
			t.Fatalf("WithinDistance(%q, %q) does not bound at the distance %d", a, b, d)
		}
	}
}

func TestWithinDistanceAllocationFree(t *testing.T) {
	a, b := "University of Enel 24 – Zürich", "Universiti of Enel 42 - Zurich"
	if allocs := testing.AllocsPerRun(20, func() { WithinDistance(a, b, 8) }); allocs != 0 {
		t.Errorf("WithinDistance on %d runes cost %.0f allocations", len([]rune(a)), allocs)
	}
}

func TestAttrIRIRoundTrip(t *testing.T) {
	attrs := []string{"director", "release date", "total adjusted budget"}
	for _, a := range attrs {
		if got := AttrFromIRI(AttrIRI(a)); got != a {
			t.Errorf("attr IRI round trip %q -> %q", a, got)
		}
	}
}

func TestNewStatement(t *testing.T) {
	s := NewStatement("Casablanca", "director", "Michael Curtiz", "imdb.example", ExtractorDOM, "page1", 0.8)
	if err := s.Valid(); err != nil {
		t.Fatalf("statement invalid: %v", err)
	}
	if s.Object != rdf.Literal("Michael Curtiz") {
		t.Errorf("object = %v", s.Object)
	}
	if s.Provenance.Source != "imdb.example" || s.Provenance.Extractor != ExtractorDOM {
		t.Errorf("provenance = %+v", s.Provenance)
	}
	if AttrFromIRI(s.Predicate) != "director" {
		t.Errorf("predicate attr = %q", AttrFromIRI(s.Predicate))
	}
}
