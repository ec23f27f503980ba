package kb

import (
	"reflect"
	"slices"
	"testing"
)

// TestEntityRowsAreSorted: every world entity's value rows and timeline
// rows are strictly increasing by attribute, none empty, a timeline's
// attribute has a value row, and each lookup finds its own row.
func TestEntityRowsAreSorted(t *testing.T) {
	for _, cfg := range []WorldConfig{
		DefaultWorldConfig(),
		{Seed: 4, EntitiesPerClass: 25, AttrsPerEntity: 40},
		{Seed: 9, EntitiesPerClass: 10, AttrsPerEntity: 3},
	} {
		w := NewWorld(cfg)
		for _, cls := range w.Ontology.ClassNames() {
			for _, e := range w.EntitiesOf(cls) {
				for i, row := range e.Values {
					if i > 0 && e.Values[i-1].Attr >= row.Attr {
						t.Fatalf("seed %d %s: value rows %q then %q", cfg.Seed, e.Name, e.Values[i-1].Attr, row.Attr)
					}
					if len(row.Values) == 0 {
						t.Fatalf("seed %d %s/%s: empty value row", cfg.Seed, e.Name, row.Attr)
					}
					if got := e.TrueValues(row.Attr); !slices.Equal(got, row.Values) {
						t.Fatalf("seed %d %s/%s: TrueValues = %q, row holds %q", cfg.Seed, e.Name, row.Attr, got, row.Values)
					}
				}
				for i, tl := range e.Timelines {
					if i > 0 && e.Timelines[i-1].Attr >= tl.Attr {
						t.Fatalf("seed %d %s: timeline rows %q then %q", cfg.Seed, e.Name, e.Timelines[i-1].Attr, tl.Attr)
					}
					if len(tl.Spans) == 0 || !e.HasAttr(tl.Attr) {
						t.Fatalf("seed %d %s/%s: %d spans, value row %v", cfg.Seed, e.Name, tl.Attr, len(tl.Spans), e.HasAttr(tl.Attr))
					}
					if got := e.Timeline(tl.Attr); !slices.Equal(got, tl.Spans) {
						t.Fatalf("seed %d %s/%s: Timeline = %v, row holds %v", cfg.Seed, e.Name, tl.Attr, got, tl.Spans)
					}
				}
			}
		}
	}
}

// TestErrorFreeFactsAreTheWorld: without errors, every source-KB fact's
// rows are strictly name-sorted and hold the entity's true values of each
// sub-field's canonical attribute, one row for every sub-field the entity
// has values for; and there is exactly one fact per (covered entity,
// property it has a value for).
func TestErrorFreeFactsAreTheWorld(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 5, EntitiesPerClass: 20, AttrsPerEntity: 30})
	for _, src := range []*SourceKB{
		GenerateDBpedia(w, KBGenConfig{Seed: 5, Coverage: 0.8}),
		GenerateFreebase(w, KBGenConfig{Seed: 5, Coverage: 0.6}),
	} {
		for _, cls := range w.Ontology.ClassNames() {
			props := map[string]Property{}
			for _, p := range src.Properties[cls] {
				props[p.Name] = p
			}
			type key struct{ entity, property string }
			seen := map[key]bool{}
			for _, f := range src.Facts[cls] {
				k := key{f.Entity, f.Property}
				if seen[k] {
					t.Fatalf("%s/%s: two facts for %v", src.Name, cls, k)
				}
				seen[k] = true
				e, _ := w.Entity(f.Entity)
				p, ok := props[f.Property]
				if e == nil || !ok {
					t.Fatalf("%s/%s: fact %v names no entity or property", src.Name, cls, k)
				}
				want := map[string][]string{} // generated sub-field names are distinct
				for _, field := range p.Fields {
					if vs := e.TrueValues(field.Canonical); len(vs) > 0 {
						want[field.Name] = vs
					}
				}
				if len(f.FieldValues) != len(want) {
					t.Fatalf("%s/%s %v: %d rows, want %d", src.Name, cls, k, len(f.FieldValues), len(want))
				}
				for i, row := range f.FieldValues {
					if i > 0 && f.FieldValues[i-1].Attr >= row.Attr {
						t.Fatalf("%s/%s %v: rows %q then %q", src.Name, cls, k, f.FieldValues[i-1].Attr, row.Attr)
					}
					if !slices.Equal(row.Values, want[row.Attr]) {
						t.Fatalf("%s/%s %v: field %q holds %q, want %q", src.Name, cls, k, row.Attr, row.Values, want[row.Attr])
					}
				}
			}
			for _, name := range src.CoveredEntities[cls] {
				e, _ := w.Entity(name)
				for _, p := range src.Properties[cls] {
					has := slices.ContainsFunc(p.Fields, func(f Field) bool { return e.HasAttr(f.Canonical) })
					if has != seen[key{name, p.Name}] {
						t.Fatalf("%s/%s: entity %s has a value for %s: %v, has a fact: %v", src.Name, cls, name, p.Name, has, !has)
					}
				}
			}
		}
	}
}

// TestSameNamedFieldsKeepTheLastWithValues: of a composite's sub-fields
// that render to one surface name, the fact holds the values of the last,
// in Fields order, that has any — the rule a map keyed by the name kept.
func TestSameNamedFieldsKeepTheLastWithValues(t *testing.T) {
	w := NewWorld(WorldConfig{Seed: 2, EntitiesPerClass: 3, AttrsPerEntity: 12})
	cls := w.Ontology.Class("Film")
	e := w.EntitiesOf("Film")[0]
	var missing string // an attribute of the class the entity has no value for
	for _, a := range cls.Attributes {
		if !e.HasAttr(a.Canonical) {
			missing = a.Canonical
			break
		}
	}
	if len(e.Values) < 3 || missing == "" {
		t.Fatalf("entity %s has %d rows, missing %q", e.Name, len(e.Values), missing)
	}
	a, b, c := e.Values[0], e.Values[1], e.Values[2]
	props := []Property{
		{Name: "twice", Class: "Film", Fields: []Field{
			{Name: "dup", Canonical: a.Attr},
			{Name: "alpha", Canonical: b.Attr},
			{Name: "dup", Canonical: c.Attr},
			{Name: "dup", Canonical: missing},
		}},
		{Name: "earlier", Class: "Film", Fields: []Field{
			{Name: "dup", Canonical: a.Attr},
			{Name: "dup", Canonical: missing},
		}},
		{Name: "none", Class: "Film", Fields: []Field{{Name: "", Canonical: missing}}},
	}
	got := buildFacts(w, cls, props, []string{e.Name}, 0, nil)
	want := []Fact{
		{Entity: e.Name, Property: "twice", FieldValues: []AttrValues{{Attr: "alpha", Values: b.Values}, {Attr: "dup", Values: c.Values}}},
		{Entity: e.Name, Property: "earlier", FieldValues: []AttrValues{{Attr: "dup", Values: a.Values}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("facts\n got  %+v\n want %+v", got, want)
	}
}
