package rdf

import (
	"cmp"
	"fmt"
	"strings"
)

// Triple is a bare RDF triple: subject, predicate, object.
type Triple struct {
	Subject   Term
	Predicate Term
	Object    Term
}

// T is a convenience constructor for a Triple.
func T(s, p, o Term) Triple { return Triple{Subject: s, Predicate: p, Object: o} }

// String renders the triple in N-Triples syntax (without trailing newline).
func (t Triple) String() string {
	return t.Subject.String() + " " + t.Predicate.String() + " " + t.Object.String() + " ."
}

// ItemKey returns the data-item key (subject, predicate) of the triple. A
// "data item" in the fusion literature is the pair an extraction claims a
// value for, e.g. (Barack Obama, profession).
func (t Triple) ItemKey() string {
	var b strings.Builder
	b.Grow(t.Subject.keyLen() + t.Predicate.keyLen() + 1)
	t.Subject.writeKey(&b)
	b.WriteByte('|')
	t.Predicate.writeKey(&b)
	return b.String()
}

// CompareItemKeys returns strings.Compare(a.ItemKey(), b.ItemKey()) without
// spelling either key. Two subjects of one kind whose values differ before
// the shorter ends differ there, and two triples of one subject differ in
// their predicates' keys; anything else (one subject's value a proper
// prefix of the other's, subjects or predicates of two kinds) is compared
// piece by piece.
func CompareItemKeys(a, b *Triple) int {
	if a.Subject.Kind == b.Subject.Kind {
		x, y := a.Subject.Value, b.Subject.Value
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		if len(x) == len(y) && a.Predicate.Kind == b.Predicate.Kind {
			return strings.Compare(a.Predicate.Value, b.Predicate.Value)
		}
	}
	return comparePieces(a.itemKeyPieces(), b.itemKeyPieces())
}

// CompareItemKey returns strings.Compare(t.ItemKey(), key) without spelling
// the triple's key.
func (t Triple) CompareItemKey(key string) int {
	return comparePieces(t.itemKeyPieces(), [5]string{key})
}

// itemKeyPieces are the strings ItemKey concatenates.
func (t Triple) itemKeyPieces() [5]string {
	return [5]string{t.Subject.kindKey(), t.Subject.Value, "|", t.Predicate.kindKey(), t.Predicate.Value}
}

// comparePieces compares the concatenations of a's pieces and of b's the way
// strings.Compare would compare the two strings.
func comparePieces(a, b [5]string) int {
	var x, y string // what is left of the pieces being compared
	i, j := 0, 0
	for {
		for ; x == "" && i < len(a); i++ {
			x = a[i]
		}
		for ; y == "" && j < len(b); j++ {
			y = b[j]
		}
		if x == "" || y == "" {
			// One side has ended: it is the smaller unless both have.
			return cmp.Compare(len(x), len(y))
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

// Compare orders triples lexicographically by subject, predicate, object.
func (t Triple) Compare(o Triple) int {
	if c := t.Subject.Compare(o.Subject); c != 0 {
		return c
	}
	if c := t.Predicate.Compare(o.Predicate); c != 0 {
		return c
	}
	return t.Object.Compare(o.Object)
}

// Provenance records where a statement came from: the original Web source
// (site or corpus) and the extractor that produced it. The knowledge-fusion
// phase reasons over (source, extractor) pairs with finer granularity than
// classical data fusion, following Dong et al. (VLDB'14).
type Provenance struct {
	// Source identifies the original data source, e.g. a website host,
	// "querystream", "freebase", or "dbpedia".
	Source string
	// Extractor names the extraction system, e.g. "domx", "textx", "qsx",
	// "kbx".
	Extractor string
	// Document optionally identifies the page or record within the source.
	Document string
}

// Key returns a unique key for the provenance.
func (p Provenance) Key() string {
	return p.Source + "\x00" + p.Extractor + "\x00" + p.Document
}

// String renders the provenance compactly for logs.
func (p Provenance) String() string {
	if p.Document == "" {
		return p.Extractor + "@" + p.Source
	}
	return p.Extractor + "@" + p.Source + "/" + p.Document
}

// Statement is a triple annotated with provenance and an extractor-assigned
// confidence score in [0, 1]. Statements are what extractors emit and what
// knowledge fusion fuses; the confidence score implements the paper's
// "unified criterion" for extraction uncertainty.
type Statement struct {
	Triple
	Provenance Provenance
	// Confidence is the extractor's belief that the triple is true, in
	// [0, 1]. A value of 0 means "unscored"; extractors always assign a
	// strictly positive score.
	Confidence float64
}

// S constructs a Statement.
func S(t Triple, prov Provenance, conf float64) Statement {
	return Statement{Triple: t, Provenance: prov, Confidence: conf}
}

// String renders the statement with its annotations as a comment.
func (s Statement) String() string {
	return fmt.Sprintf("%s # conf=%.3f prov=%s", s.Triple.String(), s.Confidence, s.Provenance)
}

// Valid reports whether the statement is structurally well formed: subject
// and predicate are IRIs or blanks (predicate must be an IRI), the object is
// any term, and the confidence is within [0, 1].
func (s Statement) Valid() error {
	if s.Subject.IsLiteral() {
		return fmt.Errorf("rdf: subject must not be a literal: %s", s.Subject)
	}
	if !s.Predicate.IsIRI() {
		return fmt.Errorf("rdf: predicate must be an IRI: %s", s.Predicate)
	}
	if s.Subject.Value == "" || s.Predicate.Value == "" {
		return fmt.Errorf("rdf: empty subject or predicate in %s", s.Triple)
	}
	if !(s.Confidence >= 0 && s.Confidence <= 1) { // NaN fails both
		return fmt.Errorf("rdf: confidence %g out of [0,1]", s.Confidence)
	}
	return nil
}

// Namespace helps build IRIs under a common prefix.
type Namespace string

// AKB is the namespace for resources minted by this system.
const AKB Namespace = "http://akb.example.org/"

// IRI mints an IRI term in the namespace. The local name is percent-free and
// is expected to already be IRI-safe; spaces are replaced with underscores as
// is conventional for DBpedia-style resource names.
func (ns Namespace) IRI(local string) Term {
	if strings.IndexByte(local, ' ') < 0 {
		return IRI(string(ns) + local)
	}
	// One allocation, not a replaced copy and then the joined one.
	var b strings.Builder
	b.Grow(len(ns) + len(local))
	b.WriteString(string(ns))
	for i := 0; i < len(local); i++ {
		c := local[i]
		if c == ' ' {
			c = '_'
		}
		b.WriteByte(c)
	}
	return IRI(b.String())
}

// LocalName extracts the final path or fragment segment of an IRI term,
// e.g. "Barack_Obama" from "http://akb.example.org/Barack_Obama". For
// non-IRI terms it returns the term value unchanged.
func LocalName(t Term) string {
	if !t.IsIRI() {
		return t.Value
	}
	v := t.Value
	if i := strings.LastIndexByte(v, '#'); i >= 0 {
		return v[i+1:]
	}
	if i := strings.LastIndexByte(v, '/'); i >= 0 {
		return v[i+1:]
	}
	return v
}
