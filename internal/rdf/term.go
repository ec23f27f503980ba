// Package rdf implements the Resource Description Framework data model used
// throughout the knowledge-base construction pipeline: terms (IRIs, literals,
// blank nodes), triples, confidence- and provenance-annotated statements, and
// N-Triples / N-Quads serialisation.
//
// The paper represents all "actionable knowledge" as RDF triples; every
// extractor in internal/extract emits rdf.Statement values and every fusion
// method in internal/fusion consumes them.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three syntactic categories of RDF terms.
type TermKind uint8

const (
	// KindIRI identifies a resource by an IRI reference.
	KindIRI TermKind = iota
	// KindLiteral is a literal value, kept as its lexical form.
	KindLiteral
	// KindBlank is a blank node with a document-scoped label.
	KindBlank
)

// String returns the conventional name of the kind.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. Terms are small immutable values and are safe to
// copy and to use as map keys.
type Term struct {
	// Kind says which syntactic category the term belongs to.
	Kind TermKind
	// Value is the IRI string, the literal lexical form, or the blank label.
	Value string
}

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// Literal returns a literal term.
func Literal(lexical string) Term { return Term{Kind: KindLiteral, Value: lexical} }

// Blank returns a blank node with the given label (without the "_:" prefix).
func Blank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsZero reports whether the term is the zero Term.
func (t Term) IsZero() bool { return t == (Term{}) }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	case KindLiteral:
		return `"` + escapeLiteral(t.Value) + `"`
	default:
		return fmt.Sprintf("<<invalid term kind %d>>", t.Kind)
	}
}

// Key returns a compact key for the term — a byte for the kind, then the
// value — so two terms have one key exactly when they are equal.
func (t Term) Key() string {
	var b strings.Builder
	b.Grow(t.keyLen())
	t.writeKey(&b)
	return b.String()
}

// keyLen is the length of the term's key.
func (t Term) keyLen() int { return 1 + len(t.Value) }

// writeKey writes the term's key to b.
func (t Term) writeKey(b *strings.Builder) {
	b.WriteString(t.kindKey())
	b.WriteString(t.Value)
}

// kindKey is the part of the term's key that spells its kind: one byte, or
// nothing for a kind outside the three.
func (t Term) kindKey() string {
	switch t.Kind {
	case KindIRI:
		return "i"
	case KindLiteral:
		return "l"
	case KindBlank:
		return "b"
	}
	return ""
}

// Compare orders terms: IRIs < literals < blanks, then by value. It returns
// -1, 0 or +1.
func (t Term) Compare(o Term) int {
	if t.Kind != o.Kind {
		if t.Kind < o.Kind {
			return -1
		}
		return 1
	}
	return strings.Compare(t.Value, o.Value)
}

func escapeLiteral(s string) string {
	// Fast path: nothing to escape.
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	// Byte-wise iteration: every escaped character is ASCII, and non-UTF-8
	// bytes must pass through unchanged (rune iteration would replace them
	// with U+FFFD and break round-tripping).
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func unescapeLiteral(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 >= len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
