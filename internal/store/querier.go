package store

// Querier is the read surface of a store that the HTTP layer
// (internal/serve) depends on. *Store implements it natively; wrappers
// such as the chaos-injecting querier in chaos.go implement it by
// delegation, so the serving path can be composed with fault injection
// (or, later, sharding and remote stores) without the handlers knowing.
//
// Every method must be safe for unsynchronised concurrent use, like the
// immutable *Store it usually wraps.
type Querier interface {
	// Len returns the number of facts.
	Len() int
	// EntityCount returns the number of distinct entities.
	EntityCount() int
	// Classes returns the distinct entity classes in sorted order.
	Classes() []string
	// Entity returns every fact about the entity in canonical order.
	Entity(id string) []Fact
	// Triples returns the accepted values for (entity, attr).
	Triples(entity, attr string) []Fact
	// Lookup answers a pattern; empty fields are wildcards.
	Lookup(q Pattern) []Fact
}

// LimitedQuerier is the optional fast path for capped queries: LookupN
// returns at most limit facts (the first in canonical order) plus the
// true total match count. The serving layer type-asserts for it so a
// sharded store can push the result cap down to every shard; queriers
// that do not implement it (e.g. the chaos wrapper) fall back to a full
// Lookup plus truncation, with identical output.
type LimitedQuerier interface {
	Querier
	// LookupN answers q with at most limit facts and the total match
	// count; limit <= 0 means unlimited.
	LookupN(q Pattern, limit int) (facts []Fact, total int)
}

// FactCursor pulls matching facts one at a time, in canonical order.
// Next returns false when the stream is exhausted; cursors are
// single-consumer and not safe for concurrent use (create one per
// consumer — creation is cheap, the underlying store is shared).
type FactCursor interface {
	Next() (Fact, bool)
}

// Iterator is the optional streaming read: Iterate pushes every fact
// matching q, in the order Lookup would return them, without allocating
// a result slice. The datalog executor (internal/datalog) type-asserts
// for it on the hot probe path; queriers that lack it fall back to
// Lookup with identical output.
type Iterator interface {
	// Iterate calls yield for each match until yield returns false;
	// reports whether the walk completed.
	Iterate(q Pattern, yield func(Fact) bool) bool
}

// CountEstimator is the optional selectivity oracle: CountEstimate
// returns an upper bound on the matches for q straight from the length
// of the run or postings list a read would walk, at the cost of finding
// it and with zero allocation. It powers the datalog planner's greedy
// clause ordering — statistics-free in the janus-datalog sense, because
// the index is the statistic.
type CountEstimator interface {
	CountEstimate(q Pattern) int
}

// Estimate is CountEstimate for any querier: the querier's own when it is a
// CountEstimator, otherwise the same number worked out from Lookups — the
// entity's matches when the pattern names one, else the fewest matches any
// one of its class, attribute and value has alone — so that what is planned
// from the estimate does not depend on which optional interfaces a querier
// happens to implement. (The slow way agrees with the postings lengths as
// long as no fact lists one ancestor twice.)
func Estimate(q Querier, p Pattern) int {
	if est, ok := q.(CountEstimator); ok {
		return est.CountEstimate(p)
	}
	if p.Entity != "" {
		return len(q.Lookup(Pattern{Entity: p.Entity, Attr: p.Attr}))
	}
	if n := fewestByField(p, func(field Pattern) int { return len(q.Lookup(field)) }); n >= 0 {
		return n
	}
	return q.Len()
}

// fewestByField returns the smallest count(field) over the one-field
// patterns of the class, attribute and value p sets, -1 when it sets none.
func fewestByField(p Pattern, count func(Pattern) int) int {
	best := -1
	for _, field := range [...]Pattern{{Class: p.Class}, {Attr: p.Attr}, {Value: p.Value}} {
		if field == (Pattern{}) {
			continue
		}
		if n := count(field); best < 0 || n < best {
			best = n
		}
	}
	return best
}

// Selector is the optional pull-based read: Select opens a cursor over
// the matches for q. The datalog executor uses it to batch the first
// clause's stream for deterministic parallel execution.
type Selector interface {
	Select(q Pattern) FactCursor
}

var (
	_ LimitedQuerier = (*Store)(nil)
	_ LimitedQuerier = (*Sharded)(nil)

	_ Iterator       = (*Store)(nil)
	_ Iterator       = (*Sharded)(nil)
	_ CountEstimator = (*Store)(nil)
	_ CountEstimator = (*Sharded)(nil)
	_ Selector       = (*Store)(nil)
	_ Selector       = (*Sharded)(nil)
)
