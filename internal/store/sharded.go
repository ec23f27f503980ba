package store

import (
	"sort"

	"akb/internal/core"
)

// DefaultShards is the shard count NewSharded uses when the caller does
// not pick one. Eight shards keep per-shard index maps small enough to
// stay cache-friendly while giving the scatter-gather path real
// parallelism headroom on typical server core counts.
const DefaultShards = 8

// ShardOf returns the shard an entity's facts live in: FNV-1a over the
// entity name modulo n. Every route that names an entity — /v1/entity,
// /v1/triples, entity-constrained /v1/query — therefore touches exactly
// one shard, and the assignment is stable across processes and runs, so
// the same snapshot always shards the same way.
func ShardOf(entity string, n int) int {
	// hash/fnv's 64-bit FNV-1a, inlined: no hasher and no []byte copy on
	// a call every entity-keyed read makes.
	h := uint64(14695981039346656037)
	for i := 0; i < len(entity); i++ {
		h = (h ^ uint64(entity[i])) * 1099511628211
	}
	return int(h % uint64(n))
}

// Sharded partitions the fused KB by entity hash into independent
// Stores, each with its own indexes. It implements Querier
// with the exact semantics of one big Store — Lookup results are
// byte-identical, ordering included — while bounding per-shard index
// size and creating the seam for multi-process deployment: a shard is
// self-contained, so peeling one onto another machine changes routing,
// not semantics.
//
// Entity-keyed reads route to exactly one shard. Wildcard reads
// scatter to every shard and merge the per-shard results — each already
// in canonical order — with a k-way merge, so the global order equals
// the single-store order without a post-merge sort. Like Store, a
// Sharded is immutable after construction and safe for unsynchronised
// concurrent use.
type Sharded struct {
	shards  []*Store
	classes []string
	nFacts  int
	nEntity int
}

// NewSharded partitions facts by entity hash into n shards (DefaultShards
// when n <= 0) and indexes each independently. Deduplication is global
// even though each shard dedups locally: facts with the same identity key
// share an entity and therefore a shard.
func NewSharded(facts []Fact, n int) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	// Count first, so each part is allocated once at its final size and
	// sorted in place.
	home := make([]int32, len(facts))
	sizes := make([]int, n)
	for i := range facts {
		home[i] = int32(ShardOf(facts[i].Entity, n))
		sizes[home[i]]++
	}
	parts := make([][]Fact, n)
	for i, size := range sizes {
		parts[i] = make([]Fact, 0, size)
	}
	for i, f := range facts {
		parts[home[i]] = append(parts[home[i]], f)
	}
	shards := make([]*Store, n)
	for i, part := range parts {
		shards[i] = build(canonical(part))
	}
	return newSharded(shards)
}

// newSharded assembles the shards and their summed counts.
func newSharded(shards []*Store) *Sharded {
	s := &Sharded{shards: shards}
	classSet := make(map[string]bool)
	for _, sh := range shards {
		s.nFacts += sh.Len()
		s.nEntity += sh.EntityCount()
		for _, c := range sh.Classes() {
			classSet[c] = true
		}
	}
	s.classes = make([]string, 0, len(classSet))
	for c := range classSet {
		s.classes = append(s.classes, c)
	}
	sort.Strings(s.classes)
	return s
}

// ShardedFromResult snapshots a pipeline result into n shards; the
// sharded counterpart of FromResult.
func ShardedFromResult(res *core.Result, n int) *Sharded {
	return NewSharded(ResultFacts(res), n)
}

// ShardCount returns the number of shards.
func (s *Sharded) ShardCount() int { return len(s.shards) }

// Shard returns one shard's store (for the snapshot codec and tests).
func (s *Sharded) Shard(i int) *Store { return s.shards[i] }

// Len returns the total fact count across shards.
func (s *Sharded) Len() int { return s.nFacts }

// EntityCount returns the total distinct-entity count. Shards partition
// entities, so the per-shard counts sum without overlap.
func (s *Sharded) EntityCount() int { return s.nEntity }

// Classes returns the distinct entity classes across all shards in
// sorted order. The returned slice must not be modified.
func (s *Sharded) Classes() []string { return s.classes }

// Facts returns every fact in global canonical order (merged across
// shards). Unlike Store.Facts this allocates; it exists for the codec
// and for equivalence tests, not the serving hot path.
func (s *Sharded) Facts() []Fact {
	lists := make([][]Fact, len(s.shards))
	for i, sh := range s.shards {
		lists[i] = sh.Facts()
	}
	return mergeFacts(lists, -1)
}

// Flatten rebuilds the equivalent single Store. The merged facts are
// already canonical, so they are indexed as they are.
func (s *Sharded) Flatten() *Store { return build(s.Facts()) }

// Entity returns every fact about the entity; exactly one shard is
// consulted.
func (s *Sharded) Entity(id string) []Fact {
	return s.shards[ShardOf(id, len(s.shards))].Entity(id)
}

// Triples returns the accepted values for (entity, attr); exactly one
// shard is consulted.
func (s *Sharded) Triples(entity, attr string) []Fact {
	return s.shards[ShardOf(entity, len(s.shards))].Triples(entity, attr)
}

// Lookup answers a query with output byte-identical to the equivalent
// single Store's Lookup. Entity-constrained queries route to one shard;
// everything else scatter-gathers and merges.
func (s *Sharded) Lookup(q Pattern) []Fact {
	if q.Entity != "" {
		return s.shards[ShardOf(q.Entity, len(s.shards))].Lookup(q)
	}
	lists := make([][]Fact, len(s.shards))
	for i, sh := range s.shards {
		lists[i] = sh.Lookup(q)
	}
	return mergeFacts(lists, -1)
}

// LookupN answers a query with at most limit facts plus the true total,
// identical to what the equivalent single Store's LookupN returns. The
// scatter passes the limit down to every shard: the global first-limit
// facts in canonical order draw at most limit from any one shard, so
// each shard materialises a bounded prefix while still counting its full
// total — the per-shard-limit property that keeps wildcard queries cheap
// as shards multiply.
func (s *Sharded) LookupN(q Pattern, limit int) (out []Fact, total int) {
	if q.Entity != "" {
		return s.shards[ShardOf(q.Entity, len(s.shards))].LookupN(q, limit)
	}
	if limit <= 0 {
		// Store.LookupN treats non-positive limits as unlimited; mergeFacts
		// spells unlimited as a negative limit.
		limit = -1
	}
	lists := make([][]Fact, len(s.shards))
	for i, sh := range s.shards {
		part, n := sh.LookupN(q, limit)
		lists[i] = part
		total += n
	}
	return mergeFacts(lists, limit), total
}

// Iterate streams the facts matching q in global canonical order, like
// Store.Iterate. Entity-constrained patterns stream straight off one
// shard; everything else merges the per-shard cursors lazily, so no
// shard's result set is materialised.
func (s *Sharded) Iterate(q Pattern, yield func(Fact) bool) bool {
	if q.Entity != "" {
		return s.shards[ShardOf(q.Entity, len(s.shards))].Iterate(q, yield)
	}
	m := s.merge(q)
	for f := m.next(); f != nil; f = m.next() {
		if !yield(*f) {
			return false
		}
	}
	return true
}

// CountEstimate returns an upper bound on the matches for q, and the same
// number the equivalent single Store returns, so a datalog plan does not
// depend on the layout: one shard's estimate for entity-constrained
// patterns; otherwise, for each field the pattern sets, that field's
// postings lengths summed over the shards, and the smallest of those sums.
// Each shard's own cursor walks its own shortest list, so the facts a read
// visits are at most this many. Like Store.CountEstimate it reads run and
// postings-list lengths only — no statistics catalog, no scan.
func (s *Sharded) CountEstimate(q Pattern) int {
	if q.Entity != "" {
		return s.shards[ShardOf(q.Entity, len(s.shards))].CountEstimate(q)
	}
	sum := func(field Pattern) int {
		n := 0
		for _, sh := range s.shards {
			n += sh.CountEstimate(field)
		}
		return n
	}
	if n := fewestByField(q, sum); n >= 0 {
		return n
	}
	return s.nFacts
}

// Select returns a pull cursor over the facts matching q in global
// canonical order: one shard's cursor when the pattern names an entity, a
// lazy k-way merge of every shard's cursor otherwise.
func (s *Sharded) Select(q Pattern) FactCursor {
	if q.Entity != "" {
		return s.shards[ShardOf(q.Entity, len(s.shards))].Select(q)
	}
	return s.merge(q)
}

// mergeCursor k-way merges the shards' cursors. It holds each shard's next
// match by reference — a pointer into that shard's immutable fact array —
// and compares the heads in place, so a fact is copied once, when it is
// emitted. Comparing with factLess alone is deterministic because identity
// keys pin entities to shards (see mergeFacts). Linear minimum selection
// over the shard count beats heap bookkeeping at the 8–64 shard sizes this
// store runs at.
type mergeCursor struct {
	cursors []cursor
	heads   []*Fact // nil: that shard is exhausted
}

func (s *Sharded) merge(q Pattern) *mergeCursor {
	m := &mergeCursor{
		cursors: make([]cursor, len(s.shards)),
		heads:   make([]*Fact, len(s.shards)),
	}
	for i, sh := range s.shards {
		m.cursors[i] = sh.cursor(q)
		m.heads[i] = m.cursors[i].next()
	}
	return m
}

func (m *mergeCursor) next() *Fact {
	best := -1
	for i, h := range m.heads {
		if h != nil && (best < 0 || factLess(h, m.heads[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	f := m.heads[best]
	m.heads[best] = m.cursors[best].next()
	return f
}

func (m *mergeCursor) Next() (Fact, bool) {
	if f := m.next(); f != nil {
		return *f, true
	}
	return Fact{}, false
}

// Scan answers a query by brute force over every shard, merged; the
// reference semantics for Sharded.Lookup, mirroring Store.Scan.
func (s *Sharded) Scan(q Pattern) []Fact {
	lists := make([][]Fact, len(s.shards))
	for i, sh := range s.shards {
		lists[i] = sh.Scan(q)
	}
	return mergeFacts(lists, -1)
}

// mergeFacts k-way merges canonically-sorted fact lists into one
// canonically-sorted list, stopping after limit facts (limit < 0 merges
// everything). Keys never tie across lists — a fact's identity key pins
// its entity, and entities are partitioned — so comparing with factLess
// alone is deterministic.
func mergeFacts(lists [][]Fact, limit int) []Fact {
	total := 0
	live := 0
	for _, l := range lists {
		total += len(l)
		if len(l) > 0 {
			live++
		}
	}
	if limit >= 0 && total > limit {
		total = limit
	}
	if total == 0 {
		return nil
	}
	out := make([]Fact, 0, total)
	if live == 1 {
		for _, l := range lists {
			if len(l) > 0 {
				return append(out, l[:total]...)
			}
		}
	}
	pos := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if pos[i] >= len(l) {
				continue
			}
			if best < 0 || factLess(&l[pos[i]], &lists[best][pos[best]]) {
				best = i
			}
		}
		out = append(out, lists[best][pos[best]])
		pos[best]++
	}
	return out
}

var _ Querier = (*Sharded)(nil)
