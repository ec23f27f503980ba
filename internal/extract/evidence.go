package extract

import (
	"cmp"
	"slices"

	"akb/internal/rdf"
)

// observation is one "this page says entity's attr is value" an extractor
// made, with the source and document that said it.
type observation struct{ entity, attr, value, source, doc string }

// The log is cut into blocks of 1<<blockBits observations: an observation's
// place is its block number shifted left by blockBits, plus its offset.
const (
	blockBits = 8
	blockMask = 1<<blockBits - 1
)

// claimEnd closes one claim of the counted evidence: its statements end
// before statements[end], and support observations made it.
type claimEnd struct{ end, support uint32 }

// Evidence is an extractor's log of observations and, once counted, the
// claims they make: the one path from "this page says entity's attr is
// value" to the rdf.Statements fusion reads.
type Evidence struct {
	// blocks hold the observations in the order they were made, a merged
	// log's after those of the log it was merged into. An observation does
	// not move: a full block is followed by a new one.
	blocks [][]observation
	// statements are the places of the observations that become
	// statements, in the order they are minted; claims split them by claim.
	statements []uint32
	claims     []claimEnd
}

// NewEvidence returns an empty log.
func NewEvidence() *Evidence { return &Evidence{} }

// Add records one observation of (entity, attr, value) by source in doc.
func (e *Evidence) Add(entity, attr, value, source, doc string) {
	if last := len(e.blocks) - 1; last < 0 || len(e.blocks[last]) == cap(e.blocks[last]) {
		e.blocks = append(e.blocks, make([]observation, 0, blockMask+1))
	}
	b := &e.blocks[len(e.blocks)-1]
	*b = append(*b, observation{entity, attr, value, source, doc})
}

// Merge appends o's log to e's, as if o's observations had been added after
// e's. o must not be used afterwards.
func (e *Evidence) Merge(o *Evidence) {
	e.blocks = append(e.blocks, o.blocks...)
}

func (e *Evidence) at(place uint32) *observation {
	return &e.blocks[place>>blockBits][place&blockMask]
}

// Count folds the log into claims: one per (entity, attr, value), in that
// string order — minted IRIs rewrite spaces, so this is not the order of
// the IRIs. A claim's support is how often it was observed; each source
// that observed it is kept once, with the document it first did so in, in
// first-seen order. Count follows the last Add or Merge; Len and
// AppendStatements read what it folded.
func (e *Evidence) Count() {
	n := 0
	for _, b := range e.blocks {
		n += len(b)
	}
	places := make([]uint32, 0, n)
	for i, b := range e.blocks {
		for j := range b {
			places = append(places, uint32(i<<blockBits|j))
		}
	}
	// Places grow with the log, so breaking ties by place keeps the sort
	// stable.
	slices.SortFunc(places, func(a, b uint32) int {
		x, y := e.at(a), e.at(b)
		if c := cmp.Compare(x.entity, y.entity); c != 0 {
			return c
		}
		if c := cmp.Compare(x.attr, y.attr); c != 0 {
			return c
		}
		if c := cmp.Compare(x.value, y.value); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// The kept places are written over the sorted ones: a claim keeps at
	// most the observations it has.
	e.claims = e.claims[:0]
	kept := places[:0]
	for i := 0; i < len(places); {
		first, lo := e.at(places[i]), len(kept)
		j := i
		for ; j < len(places); j++ {
			o := e.at(places[j])
			if o.entity != first.entity || o.attr != first.attr || o.value != first.value {
				break
			}
			if !e.hasSource(kept[lo:], o.source) {
				kept = append(kept, places[j])
			}
		}
		e.claims = append(e.claims, claimEnd{end: uint32(len(kept)), support: uint32(j - i)})
		i = j
	}
	e.statements = kept
}

// hasSource reports whether one of the observations at places is by source.
// The sources of one claim are the few sites that state the same fact —
// most claims have one — so they are searched rather than indexed.
func (e *Evidence) hasSource(places []uint32, source string) bool {
	for _, p := range places {
		if e.at(p).source == source {
			return true
		}
	}
	return false
}

// Len is the number of statements AppendStatements appends: one per
// (claim, source).
func (e *Evidence) Len() int { return len(e.statements) }

// AppendStatements appends one statement per (claim, source) to dst, claims
// in the order Count put them and a claim's statements in the order its
// sources were first seen. Every statement of a claim carries
// score(support, distinct sources).
func (e *Evidence) AppendStatements(dst []rdf.Statement, extractor string, score func(support, sources int) float64) []rdf.Statement {
	dst = slices.Grow(dst, len(e.statements))
	var subject, predicate rdf.Term
	var prev *observation
	lo := uint32(0)
	for _, c := range e.claims {
		o := e.at(e.statements[lo])
		// Claims arrive grouped by entity, then attribute: an IRI is minted
		// where the name changes, not once per statement.
		if prev == nil || o.entity != prev.entity {
			subject = EntityIRI(o.entity)
		}
		if prev == nil || o.attr != prev.attr {
			predicate = AttrIRI(o.attr)
		}
		triple := rdf.T(subject, predicate, rdf.Literal(o.value))
		conf := score(int(c.support), int(c.end-lo))
		for _, p := range e.statements[lo:c.end] {
			s := e.at(p)
			dst = append(dst, rdf.S(triple, rdf.Provenance{Source: s.source, Extractor: extractor, Document: s.doc}, conf))
		}
		prev, lo = o, c.end
	}
	return dst
}
