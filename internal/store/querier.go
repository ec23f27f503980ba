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
