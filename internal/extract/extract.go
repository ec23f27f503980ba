// Package extract defines the shared vocabulary of the four knowledge
// extractors (kbx, qsx, domx, textx): discovered attribute sets with
// support evidence, extractor result records, and the entity index used for
// entity recognition. Each concrete extractor lives in a subpackage.
package extract

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"akb/internal/htmldom"
	"akb/internal/kb"
	"akb/internal/rdf"
)

// Extractor names, used in provenance records and confidence priors.
const (
	ExtractorKB    = "kbx"
	ExtractorQuery = "qsx"
	ExtractorDOM   = "domx"
	ExtractorText  = "textx"
)

// AttrEvidence accumulates support for one discovered attribute.
type AttrEvidence struct {
	// Support counts independent observations (mentions, pages, properties).
	Support int
	// Sources is the set of distinct origins that contributed.
	Sources map[string]struct{}
	// Confidence is the unified confidence score assigned by
	// internal/confidence once scoring runs; zero until then.
	Confidence float64
}

// AttrSet is a set of discovered canonical attributes with evidence.
type AttrSet map[string]*AttrEvidence

// NewAttrSet returns an empty attribute set.
func NewAttrSet() AttrSet { return make(AttrSet) }

// Add records one observation of the attribute from a source.
func (s AttrSet) Add(attr, source string) {
	ev, ok := s[attr]
	if !ok {
		ev = &AttrEvidence{Sources: make(map[string]struct{})}
		s[attr] = ev
	}
	ev.Support++
	if source != "" {
		ev.Sources[source] = struct{}{}
	}
}

// Has reports membership.
func (s AttrSet) Has(attr string) bool {
	_, ok := s[attr]
	return ok
}

// Names returns the attribute names in sorted order.
func (s AttrSet) Names() []string {
	out := make([]string, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of attributes.
func (s AttrSet) Len() int { return len(s) }

// Union merges other into s (evidence is combined).
func (s AttrSet) Union(other AttrSet) {
	for a, ev := range other {
		dst, ok := s[a]
		if !ok {
			dst = &AttrEvidence{Sources: make(map[string]struct{})}
			s[a] = dst
		}
		dst.Support += ev.Support
		for src := range ev.Sources {
			dst.Sources[src] = struct{}{}
		}
		if ev.Confidence > dst.Confidence {
			dst.Confidence = ev.Confidence
		}
	}
}

// Clone returns a deep copy.
func (s AttrSet) Clone() AttrSet {
	out := make(AttrSet, len(s))
	for a, ev := range s {
		cp := &AttrEvidence{Support: ev.Support, Confidence: ev.Confidence, Sources: make(map[string]struct{}, len(ev.Sources))}
		for src := range ev.Sources {
			cp.Sources[src] = struct{}{}
		}
		out[a] = cp
	}
	return out
}

// EntityIndex maps entity surface names to their class, implementing the
// paper's entity recognition: "each class is specified as a set of
// representative entities of Freebase".
type EntityIndex struct {
	byName map[string]string
}

// NewEntityIndex builds an index from a source KB's covered entities.
func NewEntityIndex(src *kb.SourceKB) *EntityIndex {
	idx := &EntityIndex{byName: make(map[string]string)}
	for class, names := range src.CoveredEntities {
		for _, n := range names {
			idx.byName[n] = class
		}
	}
	return idx
}

// NewEntityIndexFromWorld builds an index covering every world entity.
func NewEntityIndexFromWorld(w *kb.World) *EntityIndex {
	idx := &EntityIndex{byName: make(map[string]string)}
	for _, class := range w.Ontology.ClassNames() {
		for _, n := range w.EntityNames(class) {
			idx.byName[n] = class
		}
	}
	return idx
}

// Class returns the class of a known entity name.
func (idx *EntityIndex) Class(name string) (string, bool) {
	c, ok := idx.byName[name]
	return c, ok
}

// Len returns the number of indexed entities.
func (idx *EntityIndex) Len() int { return len(idx.byName) }

// Names returns all indexed entity names in sorted order.
func (idx *EntityIndex) Names() []string {
	out := make([]string, 0, len(idx.byName))
	for n := range idx.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NormalizeLabel canonicalises an on-page or in-query attribute surface
// form: lower-cases, trims punctuation decoration (trailing colon) and
// collapses whitespace.
func NormalizeLabel(label string) string {
	label = strings.TrimSpace(label)
	label = strings.TrimSuffix(label, ":")
	label = strings.ToLower(label)
	return htmldom.NormalizeSpace(label)
}

// EntityFact is one extracted fact about a candidate new entity, produced
// by an extractor's entity-discovery mode and consumed by
// internal/entitydisc.
type EntityFact struct {
	Name   string
	Class  string
	Attr   string
	Value  string
	Source string
	Doc    string
}

// ValidAttributeLabel reports whether a normalised label is plausible as an
// attribute name: at least three characters, at most five words, and not
// purely numeric. Extractors apply it before admitting discovered labels.
func ValidAttributeLabel(label string) bool {
	if len(label) < 3 {
		return false
	}
	words, digits := 0, 0
	inWord := false
	for _, r := range label {
		if r >= '0' && r <= '9' {
			digits++
		}
		if space := unicode.IsSpace(r); !space && !inWord {
			words++
			inWord = true
		} else if space {
			inWord = false
		}
	}
	return words <= 5 && digits != len(label)
}

// WithinDistance reports whether the rune-level Levenshtein distance between
// a and b is at most max. It gives up at the first row of the table whose
// every cell exceeds max, and keeps the table on the stack while the shorter
// string has at most 64 runes.
func WithinDistance(a, b string, max int) bool {
	na, nb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if nb > na {
		a, b, na, nb = b, a, nb, na
	}
	if na-nb > max {
		return false
	}
	var runeBuf [64]rune
	var rowBuf [2][65]int
	rb, prev, cur := runeBuf[:0], rowBuf[0][:], rowBuf[1][:]
	if nb > len(runeBuf) {
		rb, prev, cur = make([]rune, 0, nb), make([]int, nb+1), make([]int, nb+1)
	}
	for _, r := range b {
		rb = append(rb, r)
		prev[len(rb)] = len(rb)
	}
	i := 0
	for _, ra := range a {
		i++
		cur[0] = i
		rowMin := i
		for j, r := range rb {
			sub := prev[j]
			if r != ra {
				sub++
			}
			cur[j+1] = min(prev[j+1]+1, cur[j]+1, sub)
			rowMin = min(rowMin, cur[j+1])
		}
		if rowMin > max {
			return false
		}
		prev, cur = cur, prev
	}
	return prev[nb] <= max
}

// EntityIRI mints the IRI for an entity name.
func EntityIRI(name string) rdf.Term { return rdf.AKB.IRI(name) }

// attrNS is where attribute IRIs live.
const attrNS = rdf.AKB + "attr/"

// AttrIRI mints the IRI for a canonical attribute name.
func AttrIRI(attr string) rdf.Term { return attrNS.IRI(attr) }

// AttrFromIRI recovers the canonical attribute name from an attribute IRI.
func AttrFromIRI(t rdf.Term) string {
	name := rdf.LocalName(t)
	return strings.ReplaceAll(name, "_", " ")
}

// Names is AttrFromIRI remembered per IRI, for one pass over statements or
// decisions: they name the same few thousand entities and attributes again
// and again, and each recovery builds a string. It lives as long as the call
// that made it.
type Names map[string]string

// Of returns AttrFromIRI(t).
func (n Names) Of(t rdf.Term) string {
	if !t.IsIRI() {
		return AttrFromIRI(t)
	}
	name, ok := n[t.Value]
	if !ok {
		name = AttrFromIRI(t)
		n[t.Value] = name
	}
	return name
}

// NewStatement builds a confidence-annotated statement for an extracted
// (entity, attribute, value) triple.
func NewStatement(entity, attr, value, source, extractor, doc string, conf float64) rdf.Statement {
	return rdf.S(
		rdf.T(EntityIRI(entity), AttrIRI(attr), rdf.Literal(value)),
		rdf.Provenance{Source: source, Extractor: extractor, Document: doc},
		conf,
	)
}
