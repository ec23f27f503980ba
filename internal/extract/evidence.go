package extract

import (
	"cmp"
	"slices"

	"akb/internal/rdf"
)

// claimKey identifies one (entity, attribute, value) claim.
type claimKey struct{ entity, attr, value string }

// firstSeen is where one source first asserted a claim.
type firstSeen struct{ source, doc string }

// claim is what an extractor saw for one claim: every observation counts
// towards support; each distinct source is kept once, with the document it
// first asserted the claim in, in first-seen order. The sources of one claim
// are the few sites that state the same fact — most claims have one — so the
// first is held in place and the list is searched rather than indexed.
type claim struct {
	key     claimKey
	support int
	first   firstSeen
	more    []firstSeen
	// ord is the claim's place among all the aggregator holds; Statements
	// numbers the claims to order those that share a key.
	ord int
}

func (c *claim) see(s firstSeen) {
	if c.first.source == s.source {
		return
	}
	for _, have := range c.more {
		if have.source == s.source {
			return
		}
	}
	c.more = append(c.more, s)
}

// claimBlock is how many claims are cut from one array.
const claimBlock = 256

// Evidence aggregates an extractor's observations into claims and turns
// them into scored statements: the one path from "this page says entity's
// attr is value" to the rdf.Statements fusion reads.
type Evidence struct {
	// index finds the claims Add made since the last Merge.
	index map[claimKey]*claim
	// blocks hold the claims in the order they were first observed, an
	// adopted aggregator's after those it was merged into. Claims do not
	// move: a full block is followed by a new one.
	blocks [][]claim
	// open: the last block is this aggregator's own and takes Add's claims.
	open bool
}

// NewEvidence returns an empty aggregator.
func NewEvidence() *Evidence {
	return &Evidence{index: make(map[claimKey]*claim)}
}

// Add records one observation of (entity, attr, value) by source in doc.
func (e *Evidence) Add(entity, attr, value, source, doc string) {
	k := claimKey{entity: entity, attr: attr, value: value}
	c := e.index[k]
	if c == nil {
		c = e.newClaim()
		c.key, c.first = k, firstSeen{source: source, doc: doc}
		e.index[k] = c
	}
	c.support++
	c.see(firstSeen{source: source, doc: doc})
}

func (e *Evidence) newClaim() *claim {
	if last := len(e.blocks) - 1; !e.open || len(e.blocks[last]) == claimBlock {
		e.blocks = append(e.blocks, make([]claim, 0, claimBlock))
		e.open = true
	}
	b := &e.blocks[len(e.blocks)-1]
	*b = (*b)[:len(*b)+1]
	return &(*b)[len(*b)-1]
}

// Merge folds o into e as if o's observations had been added after e's. It
// is how shards that partition the entities (and so share no claim) are
// joined: o's claims are adopted as they stand, and a claim both hold is
// put together when Statements reads them. o must not be used afterwards.
func (e *Evidence) Merge(o *Evidence) {
	e.blocks = append(e.blocks, o.blocks...)
	e.open = false
	// What Add is told from here on comes after o's observations, also of a
	// claim e held before.
	clear(e.index)
}

// Statements mints one statement per (claim, source), claims in (entity,
// attr, value) string order — minted IRIs rewrite spaces, so this is not
// the order of the IRIs — and a claim's statements in the order its sources
// were first seen. Every statement of a claim carries score(support,
// distinct sources).
func (e *Evidence) Statements(extractor string, score func(support, sources int) float64) []rdf.Statement {
	claims, n := e.sorted()
	out := make([]rdf.Statement, 0, n)
	var subject, predicate rdf.Term
	for i := 0; i < len(claims); {
		// The claims with one key: one, unless merged aggregators shared it;
		// then the later ones fold into a copy of the first.
		c := *claims[i]
		j := i + 1
		for ; j < len(claims) && claims[j].key == c.key; j++ {
			if j == i+1 {
				c.more = slices.Clone(c.more)
			}
			c.support += claims[j].support
			c.see(claims[j].first)
			for _, s := range claims[j].more {
				c.see(s)
			}
		}
		// Claims arrive grouped by entity, then attribute: an IRI is minted
		// where the name changes, not once per statement.
		if i == 0 || c.key.entity != claims[i-1].key.entity {
			subject = EntityIRI(c.key.entity)
		}
		if i == 0 || c.key.attr != claims[i-1].key.attr {
			predicate = AttrIRI(c.key.attr)
		}
		triple := rdf.T(subject, predicate, rdf.Literal(c.key.value))
		conf := score(c.support, 1+len(c.more))
		out = append(out, rdf.S(triple, rdf.Provenance{Source: c.first.source, Extractor: extractor, Document: c.first.doc}, conf))
		for _, s := range c.more {
			out = append(out, rdf.S(triple, rdf.Provenance{Source: s.source, Extractor: extractor, Document: s.doc}, conf))
		}
		i = j
	}
	return out
}

// sorted returns the claims in key order, those of one key in the order
// they were made, and a count of their sources.
func (e *Evidence) sorted() (claims []*claim, sources int) {
	n := 0
	for _, b := range e.blocks {
		n += len(b)
	}
	claims = make([]*claim, 0, n)
	for _, b := range e.blocks {
		for i := range b {
			c := &b[i]
			c.ord = len(claims)
			claims = append(claims, c)
			sources += 1 + len(c.more)
		}
	}
	slices.SortFunc(claims, func(a, b *claim) int {
		if a.key.entity != b.key.entity {
			return cmp.Compare(a.key.entity, b.key.entity)
		}
		if a.key.attr != b.key.attr {
			return cmp.Compare(a.key.attr, b.key.attr)
		}
		if a.key.value != b.key.value {
			return cmp.Compare(a.key.value, b.key.value)
		}
		return a.ord - b.ord
	})
	return claims, sources
}
