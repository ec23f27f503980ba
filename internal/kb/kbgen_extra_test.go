package kb

import (
	"math/rand"
	"testing"
)

func TestSampleEntitiesBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "c", "d", "e"}
	if got := sampleEntities(names, 1.0, r); len(got) != 5 {
		t.Errorf("full coverage = %d, want 5", len(got))
	}
	got := sampleEntities(names, 0.4, r)
	if len(got) != 2 {
		t.Errorf("0.4 coverage = %d, want 2", len(got))
	}
	// Results keep original order (sorted indices).
	for i := 1; i < len(got); i++ {
		if indexOf(names, got[i-1]) >= indexOf(names, got[i]) {
			t.Error("sampled entities out of order")
		}
	}
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func TestCorruptValue(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	if got := corruptValue("12345", r); got == "12345" {
		t.Error("numeric value not corrupted")
	}
	if got := corruptValue("Jane Doe", r); got != "Jane Doe (disputed)" {
		t.Errorf("text corruption = %q", got)
	}
}

func TestPropertyComposite(t *testing.T) {
	simple := Property{Name: "x", Fields: []Field{{Canonical: "x"}}}
	composite := Property{Name: "y", Fields: []Field{{Canonical: "a"}, {Canonical: "b"}}}
	if simple.Composite() || !composite.Composite() {
		t.Error("Composite() wrong")
	}
}

func TestKBGenConfigDefaults(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 3, EntitiesPerClass: 10, AttrsPerEntity: 10})
	// Coverage outside (0,1] falls back to 0.7.
	kb := GenerateDBpedia(w, KBGenConfig{Seed: 3, Coverage: 1.5})
	for _, cls := range w.Ontology.ClassNames() {
		want := int(float64(w.Config.EntitiesPerClass)*0.7 + 0.5)
		if got := len(kb.CoveredEntities[cls]); got != want {
			t.Errorf("%s coverage fallback = %d, want %d", cls, got, want)
		}
	}
}

func TestValueAtAndSpanContains(t *testing.T) {
	e := &Entity{
		Name: "X", Class: "Country",
		Values:    []AttrValues{{Attr: "head of state", Values: []string{"Bob"}}},
		Timelines: []AttrSpans{{Attr: "head of state", Spans: []Span{{Value: "Alice", From: 1990, To: 1999}, {Value: "Bob", From: 2000, To: 2015}}}},
	}
	cases := []struct {
		year int
		want string
	}{
		{1989, ""}, {1990, "Alice"}, {1999, "Alice"}, {2000, "Bob"}, {2015, "Bob"}, {2016, ""},
	}
	for _, c := range cases {
		if got := e.ValueAt("head of state", c.year); got != c.want {
			t.Errorf("ValueAt(%d) = %q, want %q", c.year, got, c.want)
		}
	}
	if e.ValueAt("unknown attr", 2000) != "" {
		t.Error("unknown attribute timeline")
	}
	sp := Span{Value: "v", From: 5, To: 10}
	if sp.Contains(4) || !sp.Contains(5) || !sp.Contains(10) || sp.Contains(11) {
		t.Error("Span.Contains wrong")
	}
}

func TestTimelinesExcludedFromExtraAttrs(t *testing.T) {
	// Temporal attributes must always have both a current value and a
	// timeline, consistently.
	w := NewWorld(WorldConfig{Seed: 6, EntitiesPerClass: 20, AttrsPerEntity: 14})
	for _, cls := range w.Ontology.ClassNames() {
		class := w.Ontology.Class(cls)
		for _, e := range w.EntitiesOf(cls) {
			for _, tl := range e.Timelines {
				attr := tl.Attr
				a, ok := class.Attribute(attr)
				if !ok || !a.Temporal {
					t.Errorf("%s/%s: timeline on non-temporal attribute", e.Name, attr)
				}
				if len(e.TrueValues(attr)) == 0 {
					t.Errorf("%s/%s: timeline without current value", e.Name, attr)
				}
			}
		}
	}
}

func TestGlobalAttributeNamesUnique(t *testing.T) {
	names := globalAttributeNames(2000)
	if len(names) != 2000 {
		t.Fatalf("got %d names", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate %q", n)
		}
		seen[n] = true
	}
}

// TestEntityNamesAllocationFree pins that the per-class name lists are built
// once with the world: the query-stream generator and the entity index ask
// for them per class (formerly per noise record), and a copy per call was
// 12% of a pipeline run's allocated bytes.
func TestEntityNamesAllocationFree(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 2, EntitiesPerClass: 40, AttrsPerEntity: 10})
	for _, cls := range w.Ontology.ClassNames() {
		names, entities := w.EntityNames(cls), w.EntitiesOf(cls)
		if len(names) != len(entities) {
			t.Fatalf("%s: %d names for %d entities", cls, len(names), len(entities))
		}
		for i, e := range entities {
			if names[i] != e.Name {
				t.Fatalf("%s: names[%d] = %q, entity is %q", cls, i, names[i], e.Name)
			}
		}
	}
	var sink []string
	if allocs := testing.AllocsPerRun(100, func() { sink = w.EntityNames("Film") }); allocs != 0 {
		t.Errorf("EntityNames allocates %.0f times per call, want 0", allocs)
	}
	_ = sink
}
