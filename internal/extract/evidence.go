package extract

import (
	"sort"

	"akb/internal/rdf"
)

// claimKey identifies one (entity, attribute, value) claim.
type claimKey struct{ entity, attr, value string }

// firstSeen is where one source first asserted a claim.
type firstSeen struct{ source, doc string }

// claimSupport is what an extractor saw for one claim: every observation
// counts towards support; each distinct source is kept once, with the
// document it first asserted the claim in, in first-seen order. The sources
// of one claim are the few sites that state the same fact, so the list is
// searched rather than indexed.
type claimSupport struct {
	support int
	sources []firstSeen
}

// Evidence aggregates an extractor's observations into claims and turns
// them into scored statements: the one path from "this page says entity's
// attr is value" to the rdf.Statements fusion reads.
type Evidence struct {
	claims map[claimKey]*claimSupport
}

// NewEvidence returns an empty aggregator.
func NewEvidence() *Evidence {
	return &Evidence{claims: make(map[claimKey]*claimSupport)}
}

// Add records one observation of (entity, attr, value) by source in doc.
func (e *Evidence) Add(entity, attr, value, source, doc string) {
	k := claimKey{entity: entity, attr: attr, value: value}
	ev := e.claims[k]
	if ev == nil {
		ev = &claimSupport{}
		e.claims[k] = ev
	}
	ev.support++
	ev.see(firstSeen{source: source, doc: doc})
}

func (ev *claimSupport) see(s firstSeen) {
	for _, have := range ev.sources {
		if have.source == s.source {
			return
		}
	}
	ev.sources = append(ev.sources, s)
}

// Merge folds o into e as if o's observations had been added after e's. It
// is how shards that partition the entities (and so share no claim) are
// joined; o must not be used afterwards.
func (e *Evidence) Merge(o *Evidence) {
	for k, from := range o.claims {
		ev := e.claims[k]
		if ev == nil {
			e.claims[k] = from
			continue
		}
		ev.support += from.support
		for _, s := range from.sources {
			ev.see(s)
		}
	}
}

// Statements mints one statement per (claim, source), claims in (entity,
// attr, value) string order — minted IRIs rewrite spaces, so this is not
// the order of the IRIs — and a claim's statements in the order its sources
// were first seen. Every statement of a claim carries score(support,
// distinct sources).
func (e *Evidence) Statements(extractor string, score func(support, sources int) float64) []rdf.Statement {
	keys := make([]claimKey, 0, len(e.claims))
	n := 0
	for k, ev := range e.claims {
		keys = append(keys, k)
		n += len(ev.sources)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.entity != b.entity {
			return a.entity < b.entity
		}
		if a.attr != b.attr {
			return a.attr < b.attr
		}
		return a.value < b.value
	})
	out := make([]rdf.Statement, 0, n)
	for _, k := range keys {
		ev := e.claims[k]
		conf := score(ev.support, len(ev.sources))
		for _, s := range ev.sources {
			out = append(out, NewStatement(k.entity, k.attr, k.value, s.source, extractor, s.doc, conf))
		}
	}
	return out
}
