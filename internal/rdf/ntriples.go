package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteNTriples writes the triples in N-Triples syntax, one per line.
func WriteNTriples(w io.Writer, ts []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range ts {
		if _, err := bw.WriteString(t.String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNTriples parses N-Triples input: one triple per line, '#' comments and
// blank lines allowed. It supports the subset of the grammar produced by
// WriteNTriples (IRIs, blank nodes, plain literals): a literal with a
// language tag or a datatype is refused, since a Term has no place for
// either.
func ReadNTriples(r io.Reader) ([]Triple, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Triple
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseTripleLine(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseTripleLine(line string) (Triple, error) {
	var t [3]Term
	if err := (&ntParser{s: line}).line(t[:]); err != nil {
		return Triple{}, err
	}
	return Triple{Subject: t[0], Predicate: t[1], Object: t[2]}, nil
}

type ntParser struct {
	s string
	i int
}

func (p *ntParser) rest() string { return p.s[p.i:] }

func (p *ntParser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

// line reads as many terms as the slice holds, then the terminating '.'.
func (p *ntParser) line(terms []Term) error {
	for k := range terms {
		t, err := p.term()
		if err != nil {
			return err
		}
		terms[k] = t
	}
	p.skipSpace()
	if !strings.HasPrefix(p.rest(), ".") {
		return fmt.Errorf("missing terminating '.' in %q", p.s)
	}
	return nil
}

func (p *ntParser) term() (Term, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.s[p.i] {
	case '<':
		end := strings.IndexByte(p.s[p.i:], '>')
		if end < 0 {
			return Term{}, fmt.Errorf("unterminated IRI")
		}
		iri := p.s[p.i+1 : p.i+end]
		p.i += end + 1
		return IRI(iri), nil
	case '_':
		if !strings.HasPrefix(p.rest(), "_:") {
			return Term{}, fmt.Errorf("malformed blank node")
		}
		p.i += 2
		start := p.i
		for p.i < len(p.s) && p.s[p.i] != ' ' && p.s[p.i] != '\t' {
			p.i++
		}
		return Blank(p.s[start:p.i]), nil
	case '"':
		return p.literal()
	default:
		return Term{}, fmt.Errorf("unexpected character %q", p.s[p.i])
	}
}

func (p *ntParser) literal() (Term, error) {
	// p.s[p.i] == '"'. Find the closing unescaped quote.
	j := p.i + 1
	for j < len(p.s) {
		if p.s[j] == '\\' {
			j += 2
			continue
		}
		if p.s[j] == '"' {
			break
		}
		j++
	}
	if j >= len(p.s) {
		return Term{}, fmt.Errorf("unterminated literal")
	}
	lex := unescapeLiteral(p.s[p.i+1 : j])
	p.i = j + 1
	if rest := p.rest(); strings.HasPrefix(rest, "@") || strings.HasPrefix(rest, "^^") {
		return Term{}, fmt.Errorf("literal %q carries a language tag or a datatype", lex)
	}
	return Literal(lex), nil
}
