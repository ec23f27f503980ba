// Package kb models ontologies, entities and knowledge bases, and generates
// the synthetic stand-ins for Freebase, DBpedia, YAGO and NELL that the
// pipeline extracts from. The paper's Tables 1 and 2 are computed over these
// synthetic KBs; entity counts are scaled down 1000x from the paper's
// figures while attribute structures are modelled exactly (see DESIGN.md).
//
// The key structural idea reproduced here is that a KB's *raw* attribute
// (property) set understates the knowledge it contains: composite
// properties — Freebase compound value types, DBpedia record-valued
// properties — bundle several logical sub-attributes into one. The kbx
// extractor flattens those composites, which is why "Extrac.(Freebase)"
// exceeds "Freebase" in Table 2.
package kb

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ValueKind describes the value space of an attribute, which drives both
// synthetic value generation and extraction-time type checks.
type ValueKind uint8

const (
	// KindText is a short free-text value.
	KindText ValueKind = iota
	// KindName is a proper-noun value (person, organisation).
	KindName
	// KindPlace is a location drawn from the value hierarchy.
	KindPlace
	// KindNumber is a numeric value.
	KindNumber
	// KindDate is a year or date value.
	KindDate
)

// String names the kind.
func (k ValueKind) String() string {
	switch k {
	case KindText:
		return "text"
	case KindName:
		return "name"
	case KindPlace:
		return "place"
	case KindNumber:
		return "number"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Attribute is a canonical (KB-independent) attribute of a class.
type Attribute struct {
	// Canonical is the canonical lower-case, space-separated name,
	// e.g. "birth place".
	Canonical string
	// Kind is the attribute's value space.
	Kind ValueKind
	// Functional is true when the attribute has a single true value per
	// entity (modulo hierarchical generalisations).
	Functional bool
	// Hierarchical is true when values live in the value hierarchy and
	// ancestors of a true value are also true.
	Hierarchical bool
	// Temporal is true when the attribute's value changes over time; the
	// world records a timeline of (value, from, to) spans and the current
	// value doubles as the plain value.
	Temporal bool
}

// Class is a type in the ontology (Freebase "type", DBpedia "class").
type Class struct {
	// Name is the class name, e.g. "Film".
	Name string
	// Attributes is the canonical attribute universe of the class, in a
	// fixed deterministic order.
	Attributes []Attribute

	byName map[string]int
}

// Attribute returns the class's attribute with the given canonical name.
func (c *Class) Attribute(canonical string) (Attribute, bool) {
	if c.byName == nil {
		c.index()
	}
	i, ok := c.byName[canonical]
	if !ok {
		return Attribute{}, false
	}
	return c.Attributes[i], true
}

func (c *Class) index() {
	c.byName = make(map[string]int, len(c.Attributes))
	for i, a := range c.Attributes {
		c.byName[a.Canonical] = i
	}
}

// AttributeNames returns the canonical names in order.
func (c *Class) AttributeNames() []string {
	out := make([]string, len(c.Attributes))
	for i, a := range c.Attributes {
		out[i] = a.Canonical
	}
	return out
}

// Ontology is a set of classes.
type Ontology struct {
	classes map[string]*Class
}

// NewOntology returns an empty ontology.
func NewOntology() *Ontology {
	return &Ontology{classes: make(map[string]*Class)}
}

// AddClass registers a class, replacing any class with the same name.
func (o *Ontology) AddClass(c *Class) {
	c.index()
	o.classes[c.Name] = c
}

// Class returns the named class, or nil.
func (o *Ontology) Class(name string) *Class { return o.classes[name] }

// ClassNames returns the class names in sorted order.
func (o *Ontology) ClassNames() []string {
	out := make([]string, 0, len(o.classes))
	for n := range o.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of classes.
func (o *Ontology) Len() int { return len(o.classes) }

// Span is one segment of a temporal attribute's timeline: Value held from
// year From through year To inclusive.
type Span struct {
	Value    string
	From, To int
}

// Contains reports whether the span covers the year.
func (s Span) Contains(year int) bool { return year >= s.From && year <= s.To }

// AttrValues is one row of an entity's values or of a source-KB fact's
// sub-fields: a name and its values. Rows come in slices sorted strictly by
// Attr, none with empty Values, so a reader walks them in name order and a
// lookup is a binary search or a merge. Rows are read-only: their values may
// be shared between the world and the KBs generated from it.
type AttrValues struct {
	// Attr is the canonical attribute name in an entity's rows, the
	// sub-field's surface name in a fact's ("" for a simple property).
	Attr   string
	Values []string
}

// AttrSpans is one row of an entity's timelines: a temporal attribute and
// its spans in chronological order. Rows are sorted strictly by Attr.
type AttrSpans struct {
	Attr  string
	Spans []Span
}

// Entity is an instance of a class with ground-truth attribute values.
type Entity struct {
	// Name is the entity's surface name, e.g. "Casablanca".
	Name string
	// Class is the owning class name.
	Class string
	// Values holds the true values of each attribute the entity has, one
	// row per canonical attribute name, sorted by it. Functional attributes
	// have one value (plus hierarchy generalisations are implicitly true);
	// non-functional attributes may have several. For temporal attributes
	// the value is the current (latest) one.
	Values []AttrValues
	// Timelines holds the historical spans of the entity's temporal
	// attributes, one row per attribute, sorted by it.
	Timelines []AttrSpans
}

// TrueValues returns the true values of the attribute, or nil. It is a
// binary search over the rows, spelled out: scoring calls it once a
// statement.
func (e *Entity) TrueValues(attr string) []string {
	lo, hi := 0, len(e.Values)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); e.Values[m].Attr < attr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(e.Values) && e.Values[lo].Attr == attr {
		return e.Values[lo].Values
	}
	return nil
}

// Timeline returns the temporal attribute's spans, or nil.
func (e *Entity) Timeline(attr string) []Span {
	i, ok := slices.BinarySearchFunc(e.Timelines, attr, func(row AttrSpans, attr string) int { return strings.Compare(row.Attr, attr) })
	if !ok {
		return nil
	}
	return e.Timelines[i].Spans
}

// ValueAt returns the temporal attribute's value in the given year, or "".
func (e *Entity) ValueAt(attr string, year int) string {
	for _, s := range e.Timeline(attr) {
		if s.Contains(year) {
			return s.Value
		}
	}
	return ""
}

// Value returns the first true value of the attribute, or "".
func (e *Entity) Value(attr string) string {
	vs := e.TrueValues(attr)
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// CanonicalAttributeName normalises a KB-specific property name (camelCase
// DBpedia style, snake_case Freebase style, slash-qualified paths) into the
// canonical lower-case space-separated form. Class-name prefixes are
// stripped when the class is supplied.
func CanonicalAttributeName(raw, class string) string {
	raw = strings.TrimPrefix(raw, "/")
	// Keep only the last path segment of Freebase-style paths.
	if i := strings.LastIndexByte(raw, '/'); i >= 0 {
		raw = raw[i+1:]
	}
	// The words, lower-cased and joined by single spaces, in one buffer: a
	// word ends at a separator and before an upper-case ASCII letter.
	var buf [64]byte
	b := buf[:0]
	wordStart := true // nothing of the current word written yet
	for _, r := range raw {
		switch {
		case r == '_' || r == '-' || r == ' ' || r == '.':
			wordStart = true
			continue
		case r >= 'A' && r <= 'Z':
			wordStart = true
			r += 'a' - 'A'
		case r >= utf8.RuneSelf:
			r = unicode.ToLower(r)
		}
		if wordStart && len(b) > 0 {
			b = append(b, ' ')
		}
		wordStart = false
		b = utf8.AppendRune(b, r)
	}
	// Drop leading class-name tokens ("film directed by" -> "directed by").
	if class != "" {
		cls := strings.ToLower(class)
		for len(b) > 0 {
			end := bytes.IndexByte(b, ' ')
			if end < 0 {
				end = len(b)
			}
			if string(b[:end]) != cls {
				break
			}
			b = b[min(end+1, len(b)):]
		}
	}
	return string(b)
}

// DBpediaStyleName renders a canonical attribute name in DBpedia's
// camelCase property style, e.g. "birth place" -> "birthPlace".
func DBpediaStyleName(canonical string) string {
	words := strings.Fields(canonical)
	if len(words) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(words[0])
	for _, w := range words[1:] {
		if w == "" {
			continue
		}
		b.WriteString(strings.ToUpper(w[:1]))
		b.WriteString(w[1:])
	}
	return b.String()
}

// FreebaseStyleName renders a canonical attribute name in Freebase's
// slash-qualified snake_case property style,
// e.g. ("birth place", "Film") -> "/film/film/birth_place".
func FreebaseStyleName(canonical, class string) string {
	cls := strings.ToLower(class)
	return "/" + cls + "/" + cls + "/" + strings.ReplaceAll(canonical, " ", "_")
}
