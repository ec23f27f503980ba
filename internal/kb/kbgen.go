package kb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
)

// NamingStyle selects how a source KB surfaces property names.
type NamingStyle uint8

const (
	// StyleDBpedia renders properties in camelCase ("birthPlace").
	StyleDBpedia NamingStyle = iota
	// StyleFreebase renders slash-qualified snake_case
	// ("/film/film/birth_place").
	StyleFreebase
)

// Field is one sub-field of a (possibly composite) KB property. Simple
// properties have a single field with an empty Name. Composite properties —
// Freebase compound value types, DBpedia record-valued properties — carry
// several named fields, each corresponding to one canonical attribute.
type Field struct {
	// Name is the KB-surface sub-field name; empty for simple properties.
	Name string
	// Canonical is the underlying canonical attribute. Extractors must not
	// read it (they recover it by normalising surface names); it exists for
	// evaluation.
	Canonical string
}

// Property is a raw property of a source KB.
type Property struct {
	// Name is the KB-surface property name in the KB's naming style.
	Name string
	// Class is the owning class.
	Class string
	// Fields are the property's sub-fields (len >= 1).
	Fields []Field
}

// Composite reports whether the property bundles multiple sub-attributes.
func (p Property) Composite() bool { return len(p.Fields) > 1 }

// Fact is one property assertion about an entity in a source KB.
type Fact struct {
	Entity   string
	Property string
	// FieldValues holds the values of each sub-field that has any, one row
	// per sub-field name, sorted by it; a simple property's one row is
	// named "".
	FieldValues []AttrValues
}

// SourceKB is a synthetic stand-in for an existing knowledge base
// (Freebase or DBpedia) restricted to the world's classes.
type SourceKB struct {
	Name  string
	Style NamingStyle
	// Properties lists the raw property schema per class.
	Properties map[string][]Property
	// Facts lists assertions per class.
	Facts map[string][]Fact
	// CoveredEntities is the subset of world entities the KB describes,
	// per class.
	CoveredEntities map[string][]string
}

// KBGenConfig controls source-KB generation.
type KBGenConfig struct {
	Seed int64
	// Coverage is the fraction of world entities the KB has facts for.
	Coverage float64
	// ErrorRate is the probability a stored value is corrupted; existing
	// KBs are "generally more accurate" (paper §3.1) so this is small.
	ErrorRate float64
}

// GenerateDBpedia builds the synthetic DBpedia from the world per the Table-2
// class specs: for each class, DBpediaRaw raw properties covering the first
// DBpediaExpanded canonical attributes.
func GenerateDBpedia(w *World, cfg KBGenConfig) *SourceKB {
	return generateSourceKB(w, "DBpedia", StyleDBpedia, cfg, func(s ClassSpec) (lo, hi, raw int) {
		return 0, s.DBpediaExpanded, s.DBpediaRaw
	})
}

// GenerateFreebase builds the synthetic Freebase: FreebaseRaw raw properties
// covering the last FreebaseExpanded canonical attributes, overlapping
// DBpedia's span by exactly ClassSpec.Overlap().
func GenerateFreebase(w *World, cfg KBGenConfig) *SourceKB {
	return generateSourceKB(w, "Freebase", StyleFreebase, cfg, func(s ClassSpec) (lo, hi, raw int) {
		return s.Combined - s.FreebaseExpanded, s.Combined, s.FreebaseRaw
	})
}

func generateSourceKB(w *World, name string, style NamingStyle, cfg KBGenConfig, span func(ClassSpec) (lo, hi, raw int)) *SourceKB {
	if cfg.Coverage <= 0 || cfg.Coverage > 1 {
		cfg.Coverage = 0.7
	}
	r := rand.New(rand.NewSource(cfg.Seed ^ int64(len(name))))
	out := &SourceKB{
		Name:            name,
		Style:           style,
		Properties:      make(map[string][]Property),
		Facts:           make(map[string][]Fact),
		CoveredEntities: make(map[string][]string),
	}
	for _, class := range w.Ontology.ClassNames() {
		spec, ok := w.Spec(class)
		if !ok {
			continue
		}
		cls := w.Ontology.Class(class)
		lo, hi, raw := span(spec)
		props := buildProperties(cls, style, lo, hi, raw)
		out.Properties[class] = props
		covered := sampleEntities(w.EntityNames(class), cfg.Coverage, r)
		out.CoveredEntities[class] = covered
		out.Facts[class] = buildFacts(w, cls, props, covered, cfg.ErrorRate, r)
	}
	return out
}

// buildProperties partitions the canonical attribute span [lo, hi) into raw
// property groups. Groups of size one become simple properties; larger
// groups become composite properties with named sub-fields.
func buildProperties(cls *Class, style NamingStyle, lo, hi, raw int) []Property {
	n := hi - lo
	if raw > n {
		raw = n
	}
	props := make([]Property, 0, raw)
	// Distribute n canonical attributes over raw groups as evenly as
	// possible; the first (n mod raw) groups get one extra member.
	base, extra := n/raw, n%raw
	idx := lo
	for g := 0; g < raw; g++ {
		size := base
		if g < extra {
			size++
		}
		members := cls.Attributes[idx : idx+size]
		idx += size
		props = append(props, makeProperty(cls.Name, style, members))
	}
	return props
}

func makeProperty(class string, style NamingStyle, members []Attribute) Property {
	render := func(canonical string) string {
		if style == StyleDBpedia {
			return DBpediaStyleName(canonical)
		}
		return FreebaseStyleName(canonical, class)
	}
	if len(members) == 1 {
		return Property{
			Name:   render(members[0].Canonical),
			Class:  class,
			Fields: []Field{{Name: "", Canonical: members[0].Canonical}},
		}
	}
	// Composite: the property is named after its first member plus a
	// "record" marker (mirroring Freebase CVT type names); each sub-field
	// carries the style-rendered canonical name.
	p := Property{
		Name:  render(members[0].Canonical + " record"),
		Class: class,
	}
	for _, m := range members {
		p.Fields = append(p.Fields, Field{Name: render(m.Canonical), Canonical: m.Canonical})
	}
	return p
}

func sampleEntities(names []string, coverage float64, r *rand.Rand) []string {
	want := int(float64(len(names))*coverage + 0.5)
	if want > len(names) {
		want = len(names)
	}
	perm := r.Perm(len(names))[:want]
	sort.Ints(perm)
	out := make([]string, want)
	for i, j := range perm {
		out[i] = names[j]
	}
	return out
}

// buildFacts makes one fact per (covered entity, property it has a value
// for). The class's (property, field) slots are sorted by canonical name
// once and matched against each entity's rows in one merge. A fact's values
// are drawn for corruption in p.Fields order; its rows are then laid out in
// name order, and of the sub-fields that share a surface name the last with
// values wins.
func buildFacts(w *World, cls *Class, props []Property, covered []string, errRate float64, r *rand.Rand) []Fact {
	type slot struct {
		canonical string
		k         int // the slot's place in props-then-Fields order
	}
	var byName []slot
	first := make([]int, len(props)+1) // props[i]'s slots are [first[i], first[i+1])
	for i, p := range props {
		first[i] = len(byName)
		for _, f := range p.Fields {
			byName = append(byName, slot{f.Canonical, len(byName)})
		}
	}
	first[len(props)] = len(byName)
	slices.SortFunc(byName, func(a, b slot) int { return strings.Compare(a.canonical, b.canonical) })
	nameOrder := make([][]int, len(props))
	for i, p := range props {
		nameOrder[i] = fieldNameOrder(p)
	}
	vals := make([][]string, len(byName)) // the entity's stored values at each slot
	rows := arena[AttrValues]{chunk: 256}
	copies := arena[string]{chunk: 256}
	var facts []Fact
	for _, name := range covered {
		e, ok := w.Entity(name)
		if !ok {
			continue
		}
		clear(vals)
		i := 0
		for _, row := range e.Values {
			for i < len(byName) && byName[i].canonical < row.Attr {
				i++
			}
			for ; i < len(byName) && byName[i].canonical == row.Attr; i++ {
				vals[byName[i].k] = row.Values
			}
		}
		for pi, p := range props {
			fv := vals[first[pi]:first[pi+1]]
			n := 0
			for fi, v := range fv {
				if len(v) > 0 {
					fv[fi] = corruptValues(v, errRate, r, &copies)
					n++
				}
			}
			if n == 0 {
				continue
			}
			facts = append(facts, Fact{Entity: name, Property: p.Name, FieldValues: fieldRows(p, fv, nameOrder[pi], &rows)})
		}
	}
	return facts
}

// fieldNameOrder returns p's field indices sorted by field name, equal
// names in Fields order.
func fieldNameOrder(p Property) []int {
	order := make([]int, len(p.Fields))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(p.Fields[a].Name, p.Fields[b].Name) })
	return order
}

// fieldRows lays out a fact's rows from its fields' values fv (nil where a
// field has none), visiting the fields in order (name order, equal names in
// Fields order): one row a name, holding the values of the last field of
// that name that has any.
func fieldRows(p Property, fv [][]string, order []int, rows *arena[AttrValues]) []AttrValues {
	won := make([]int, 0, 32) // a field index a row
	for k := 0; k < len(order); {
		name, last := p.Fields[order[k]].Name, -1
		for ; k < len(order) && p.Fields[order[k]].Name == name; k++ {
			if len(fv[order[k]]) > 0 {
				last = order[k]
			}
		}
		if last >= 0 {
			won = append(won, last)
		}
	}
	out := rows.take(len(won))
	for i, fi := range won {
		out[i] = AttrValues{Attr: p.Fields[fi].Name, Values: fv[fi]}
	}
	return out
}

// corruptValues returns vals with each value corrupted with probability
// errRate, drawn in order. vals itself is returned when nothing changed, a
// copy cut from copies otherwise.
func corruptValues(vals []string, errRate float64, r *rand.Rand, copies *arena[string]) []string {
	if errRate <= 0 {
		return vals
	}
	out := vals
	for i, v := range vals {
		if r.Float64() < errRate {
			if &out[0] == &vals[0] {
				out = copies.take(len(vals))
				copy(out, vals)
			}
			out[i] = corruptValue(v, r)
		}
	}
	return out
}

// corruptValue produces a plausible wrong value, modelling the residual
// errors in curated KBs.
func corruptValue(v string, r *rand.Rand) string {
	if len(v) > 0 && v[0] >= '0' && v[0] <= '9' {
		return fmt.Sprintf("%d", r.Intn(999999)+1)
	}
	return v + " (disputed)"
}

// --- Table 1: statistics of representative KBs --------------------------

// KBProfile is the per-KB statistic reported in Table 1.
type KBProfile struct {
	Name string
	// Entities is the generated entity count (the paper's counts scaled
	// down 1000x: millions become thousands).
	Entities int
	// Attributes is the generated attribute count (unscaled).
	Attributes int
}

// StatsKB is a lightweight KB materialisation used only for Table 1: entity
// and attribute name lists of realistic sizes.
type StatsKB struct {
	Name       string
	Entities   []string
	Attributes []string
}

// Profile counts the materialised KB.
func (s *StatsKB) Profile() KBProfile {
	return KBProfile{Name: s.Name, Entities: len(s.Entities), Attributes: len(s.Attributes)}
}

// table1Targets reproduces the paper's Table 1 with entities scaled 1000x
// down (10M -> 10k etc.; NELL's 0.3M -> 300).
var table1Targets = []struct {
	name            string
	entities, attrs int
}{
	{"YAGO", 10000, 100},
	{"DBpedia", 4000, 6000},
	{"Freebase", 25000, 4000},
	{"NELL", 300, 500},
}

// GenerateStatsKBs materialises the four representative KBs of Table 1.
func GenerateStatsKBs(seed int64) []*StatsKB {
	out := make([]*StatsKB, 0, len(table1Targets))
	for i, t := range table1Targets {
		r := rand.New(rand.NewSource(seed + int64(i)))
		kb := &StatsKB{Name: t.name}
		seen := map[string]bool{}
		for len(kb.Entities) < t.entities {
			name := RandomProperNoun(r, 2+r.Intn(3)) + fmt.Sprintf(" (%s %d)", strings.ToLower(t.name), len(kb.Entities))
			if !seen[name] {
				seen[name] = true
				kb.Entities = append(kb.Entities, name)
			}
		}
		kb.Attributes = globalAttributeNames(t.attrs)
		out = append(out, kb)
	}
	return out
}

// globalAttributeNames produces n distinct attribute names drawn from the
// cross-class vocabulary.
func globalAttributeNames(n int) []string {
	classes := []string{"Country", "University", "Hotel", "Film", "Book"}
	seen := map[string]bool{}
	var out []string
	// Round-robin over per-class universes, qualifying duplicates.
	per := n/len(classes) + 1
	for _, cls := range classes {
		universe := AttributeUniverse(cls, maxUniverse(cls, per))
		for _, a := range universe {
			if len(out) == n {
				return out
			}
			name := a.Canonical
			if seen[name] {
				name = strings.ToLower(cls) + " " + name
			}
			if seen[name] {
				continue
			}
			seen[name] = true
			out = append(out, name)
		}
	}
	// Pad with indexed names if the vocabulary runs short.
	for i := 0; len(out) < n; i++ {
		name := fmt.Sprintf("auxiliary attribute %d", i)
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

func maxUniverse(cls string, want int) int {
	// Cap per-class draw at a size the vocabulary certainly supports.
	caps := map[string]int{"Country": 1000, "University": 950, "Hotel": 750, "Film": 600, "Book": 600}
	if want < caps[cls] {
		return want
	}
	return caps[cls]
}
