package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Provenance-preserving serialisation: statements are written as N-Quads,
// with the graph term encoding (source, extractor, document) so the fusion
// input can be exported, inspected and re-imported: triple and provenance
// come back exactly, the confidence, which rides in a trailing comment the
// reader understands, to the six decimals written.

// provGraphNS is the namespace for provenance graph IRIs.
const provGraphNS = "http://akb.example.org/prov/"

// confComment opens the trailing comment that carries a statement's
// confidence.
const confComment = "# conf="

// provenanceIRI encodes a Provenance as a graph IRI.
func provenanceIRI(p Provenance) Term {
	esc := func(s string) string {
		s = strings.ReplaceAll(s, "%", "%25")
		s = strings.ReplaceAll(s, "/", "%2F")
		s = strings.ReplaceAll(s, " ", "%20")
		s = strings.ReplaceAll(s, ">", "%3E")
		return s
	}
	return IRI(provGraphNS + esc(p.Source) + "/" + esc(p.Extractor) + "/" + esc(p.Document))
}

// parseProvenanceIRI decodes a provenance graph IRI.
func parseProvenanceIRI(t Term) (Provenance, bool) {
	if !t.IsIRI() || !strings.HasPrefix(t.Value, provGraphNS) {
		return Provenance{}, false
	}
	rest := t.Value[len(provGraphNS):]
	parts := strings.Split(rest, "/")
	if len(parts) != 3 {
		return Provenance{}, false
	}
	unesc := func(s string) string {
		s = strings.ReplaceAll(s, "%3E", ">")
		s = strings.ReplaceAll(s, "%20", " ")
		s = strings.ReplaceAll(s, "%2F", "/")
		s = strings.ReplaceAll(s, "%25", "%")
		return s
	}
	return Provenance{Source: unesc(parts[0]), Extractor: unesc(parts[1]), Document: unesc(parts[2])}, true
}

// WriteNQuads serialises statements as N-Quads with a confidence comment:
//
//	<s> <p> "o" <graph> . # conf=0.84
func WriteNQuads(w io.Writer, stmts []Statement) error {
	bw := bufio.NewWriter(w)
	for _, s := range stmts {
		line := fmt.Sprintf("%s %s %s %s . %s%.6f\n",
			s.Subject.String(), s.Predicate.String(), s.Object.String(),
			provenanceIRI(s.Provenance).String(), confComment, s.Confidence)
		if _, err := bw.WriteString(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNQuads parses the N-Quads subset produced by WriteNQuads, recovering
// provenance and confidence. Every statement it returns is Valid: a line
// without a confidence, or with one that is not a number in [0, 1], is
// refused like any other malformed line.
func ReadNQuads(r io.Reader) ([]Statement, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Statement
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		st, err := parseQuadLine(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: nquads line %d: %w", lineNo, err)
		}
		out = append(out, st)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseQuadLine(line string) (Statement, error) {
	i := strings.LastIndex(line, confComment)
	if i < 0 {
		return Statement{}, fmt.Errorf("missing %q comment", confComment)
	}
	conf, err := strconv.ParseFloat(line[i+len(confComment):], 64)
	if err != nil {
		return Statement{}, fmt.Errorf("confidence: %w", err)
	}
	var t [4]Term
	if err := (&ntParser{s: line[:i]}).line(t[:]); err != nil {
		return Statement{}, err
	}
	prov, ok := parseProvenanceIRI(t[3])
	if !ok {
		return Statement{}, fmt.Errorf("bad provenance graph %s", t[3])
	}
	st := Statement{
		Triple:     Triple{Subject: t[0], Predicate: t[1], Object: t[2]},
		Provenance: prov,
		Confidence: conf,
	}
	return st, st.Valid()
}
