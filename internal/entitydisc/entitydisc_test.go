package entitydisc

import (
	"reflect"
	"strings"
	"testing"

	"akb/internal/extract"
	"akb/internal/kb"
)

func fact(name, class, attr, value, source string) extract.EntityFact {
	return extract.EntityFact{Name: name, Class: class, Attr: attr, Value: value, Source: source, Doc: "d"}
}

func worldIndex(t *testing.T) (*kb.World, *extract.EntityIndex) {
	t.Helper()
	w := kb.NewWorld(kb.WorldConfig{Seed: 9, EntitiesPerClass: 10, AttrsPerEntity: 8})
	return w, extract.NewEntityIndexFromWorld(w)
}

func TestDiscoverCreatesEntities(t *testing.T) {
	_, idx := worldIndex(t)
	facts := []extract.EntityFact{
		fact("Zanzibar Nights", "Film", "director", "Leo Fontaine", "site-a"),
		fact("Zanzibar Nights", "Film", "composer", "Ida Moreau", "site-b"),
		fact("Zanzibar Nights", "Film", "director", "Leo Fontaine", "site-b"),
		fact("Lonely Mention", "Film", "director", "X", "site-a"), // support 1
	}
	res := Discover(facts, idx)
	if len(res.Entities) != 1 {
		t.Fatalf("entities = %d, want 1 (%+v)", len(res.Entities), res.Entities)
	}
	e := res.Entities[0]
	if e.Name != "Zanzibar Nights" || e.Class != "Film" || e.Support != 3 {
		t.Errorf("entity = %+v", e)
	}
	if len(e.Sources) != 2 {
		t.Errorf("sources = %v", e.Sources)
	}
	want := []kb.AttrValues{{Attr: "composer", Values: []string{"Ida Moreau"}}, {Attr: "director", Values: []string{"Leo Fontaine"}}}
	if !reflect.DeepEqual(e.Values, want) {
		t.Errorf("values = %v", e.Values)
	}
	if res.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", res.Rejected)
	}
}

func TestDiscoverLinksNearDuplicatesOfKnown(t *testing.T) {
	w, idx := worldIndex(t)
	known := w.EntityNames("Film")[0]
	// A typo within linkDistance of a known entity must LINK, not create;
	// one edit more is a new entity.
	typo := known[:len(known)-linkDistance] + strings.Repeat("x", linkDistance)
	far := known[:len(known)-linkDistance-1] + strings.Repeat("x", linkDistance+1)
	facts := []extract.EntityFact{
		fact(typo, "Film", "director", "A", "s1"),
		fact(typo, "Film", "director", "A", "s2"),
		fact(far, "Film", "director", "A", "s1"),
		fact(far, "Film", "director", "A", "s2"),
	}
	res := Discover(facts, idx)
	if len(res.Entities) != 1 || res.Entities[0].Name != far {
		t.Fatalf("entities = %+v, want only %q", res.Entities, far)
	}
	if len(res.Linked) != 1 || res.Linked[typo] != known {
		t.Errorf("linked = %v, want %q -> %q", res.Linked, typo, known)
	}
}

func TestDiscoverMergesSynonymMentions(t *testing.T) {
	_, idx := worldIndex(t)
	facts := []extract.EntityFact{
		fact("Zanzibar Nights", "Film", "director", "Leo", "s1"),
		fact("Zanzibar Nights", "Film", "genre", "Drama", "s1"),
		fact("Zanzibar Night", "Film", "director", "Leo", "s2"),    // typo variant
		fact("Zanzibar Nights 2", "Film", "director", "Leo", "s3"), // qualifier variant
	}
	res := Discover(facts, idx)
	if len(res.Entities) != 1 {
		t.Fatalf("entities = %d, want 1 merged cluster: %+v", len(res.Entities), res.Entities)
	}
	e := res.Entities[0]
	if e.Name != "Zanzibar Nights" {
		t.Errorf("canonical = %q", e.Name)
	}
	if len(e.Aliases) != 2 {
		t.Errorf("aliases = %v", e.Aliases)
	}
	if e.Support != 4 {
		t.Errorf("support = %d", e.Support)
	}
}

func TestDiscoverMinSupport(t *testing.T) {
	_, idx := worldIndex(t)
	// minSupport facts make an entity, all from one source; one fewer is
	// rejected.
	var facts []extract.EntityFact
	for i := 0; i < minSupport; i++ {
		facts = append(facts, fact("Solo Source Show", "Film", "director", "A", "only-site"))
	}
	for i := 0; i < minSupport-1; i++ {
		facts = append(facts, fact("Lonely Mention", "Film", "director", "A", "only-site"))
	}
	res := Discover(facts, idx)
	if len(res.Entities) != 1 || res.Entities[0].Name != "Solo Source Show" || res.Rejected != 1 {
		t.Errorf("entities = %+v, rejected = %d; want Solo Source Show alone and 1", res.Entities, res.Rejected)
	}
}

func TestResultStatements(t *testing.T) {
	_, idx := worldIndex(t)
	facts := []extract.EntityFact{
		fact("Zanzibar Nights", "Film", "director", "Leo", "s1"),
		fact("Zanzibar Nights", "Film", "director", "Leo", "s2"),
		fact("Zanzibar Nights", "Film", "director", "Leo", "s3"),
	}
	res := Discover(facts, idx)
	stmts := res.AppendStatements(nil, 0.6)
	if len(stmts) != 3 { // one value x three sources
		t.Fatalf("statements = %d, want 3", len(stmts))
	}
	if n := res.NumStatements(); n != len(stmts) {
		t.Errorf("NumStatements = %d, appended %d", n, len(stmts))
	}
	for _, s := range stmts {
		if err := s.Valid(); err != nil {
			t.Fatal(err)
		}
		if s.Confidence != 0.6 || s.Provenance.Extractor != "entitydisc" {
			t.Errorf("statement = %+v", s)
		}
	}
}

// TestResultStatementsNilWhenEmpty: no entity, or entities without a value,
// make no statement and allocate nothing.
func TestResultStatementsNilWhenEmpty(t *testing.T) {
	_, idx := worldIndex(t)
	if stmts := Discover(nil, idx).AppendStatements(nil, 0.6); stmts != nil {
		t.Errorf("no entity found: statements = %v, want nil", stmts)
	}
	valueless := []extract.EntityFact{
		fact("Zanzibar Nights", "Film", "", "", "s1"),
		fact("Zanzibar Nights", "Film", "", "", "s2"),
	}
	res := Discover(valueless, idx)
	if len(res.Entities) != 1 {
		t.Fatalf("entities = %+v, want one", res.Entities)
	}
	if stmts := res.AppendStatements(nil, 0.6); stmts != nil || res.NumStatements() != 0 {
		t.Errorf("entity without values: statements = %v, want nil", stmts)
	}
}

func TestWithinDistance(t *testing.T) {
	cases := []struct {
		a, b string
		max  int
		want bool
	}{
		{"abc", "abc", 0, true},
		{"abc", "abd", 1, true},
		{"abc", "abd", 0, false},
		{"short", "muchlongerstring", 2, false},
		{"kitten", "sitting", 3, true},
		{"kitten", "sitting", 2, false},
		// One rune substituted, two bytes longer: the budget is in runes.
		{"Jean-Luc", "Jean–Luc", 1, true},
		{"Jean-Luc", "Jean–Luc", 0, false},
	}
	for _, c := range cases {
		if got := extract.WithinDistance(c.a, c.b, c.max); got != c.want {
			t.Errorf("WithinDistance(%q, %q, %d) = %v, want %v", c.a, c.b, c.max, got, c.want)
		}
	}
}

// TestDiscoverClassIsAFunctionOfTheFacts: the majority class, ties to the
// smaller name, whatever order the class counts are visited in — an empty
// class once lost or won by map order.
func TestDiscoverClassIsAFunctionOfTheFacts(t *testing.T) {
	_, idx := worldIndex(t)
	facts := []extract.EntityFact{
		fact("Zanzibar Nights", "", "director", "Leo", "s1"),
		fact("Zanzibar Nights", "Film", "director", "Leo", "s2"),
		fact("Zanzibar Nights", "Book", "director", "Leo", "s3"),
		fact("Zanzibar Nights", "Film", "director", "Leo", "s4"),
		fact("Zanzibar Nights", "", "director", "Leo", "s5"),
	}
	for range 50 {
		if got := Discover(facts, idx).Entities[0].Class; got != "" {
			t.Fatalf("class = %q, want the empty one (2 facts, tied with Film, smaller)", got)
		}
	}
}

func TestNearDuplicate(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"Zanzibar Nights", "Zanzibar Night", true},
		{"Zanzibar Nights", "Zanzibar Nights 2", true},
		{"Zanzibar Nights", "Completely Different", false},
		{"A B", "A B C D", false},                    // two extra tokens: not a variant
		{"Zanzibar Nights", "Zanzibor Night", true},  // mergeDistance edits
		{"Zanzibar Nights", "Zonzibor Night", false}, // one more
	}
	for _, c := range cases {
		if got := nearDuplicate(c.a, c.b); got != c.want {
			t.Errorf("nearDuplicate(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
