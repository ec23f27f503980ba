package store

import (
	"fmt"
	"slices"
	"testing"
)

// shardedQueries is the query matrix every equivalence test runs: single
// routes, every index dimension, hierarchy values and misses.
func shardedQueries(s *Sharded) []Pattern {
	qs := []Pattern{
		{}, // full wildcard: the widest scatter-gather merge
		{Entity: "missing"},
		{Attr: "language"},
		{Attr: "language", Value: "French"},
		{Value: "missing"},
	}
	for _, class := range s.Classes() {
		qs = append(qs, Pattern{Class: class})
	}
	if facts := s.Facts(); len(facts) > 0 {
		f := facts[len(facts)/2]
		qs = append(qs,
			Pattern{Entity: f.Entity},
			Pattern{Entity: f.Entity, Attr: f.Attr},
			Pattern{Class: f.Class, Attr: f.Attr},
			Pattern{Value: f.Value},
		)
		for _, anc := range f.Ancestors {
			qs = append(qs, Pattern{Value: anc})
		}
	}
	return qs
}

// TestShardedMatchesStore is the layout invariant on the hand-built KB:
// for any shard count, every read answers what the oracle selects — facts,
// ordering, annotations, everything.
func TestShardedMatchesStore(t *testing.T) {
	facts := testFacts()
	for _, n := range []int{1, 2, 3, 8, 16} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			sh := NewSharded(facts, n)
			if sh.ShardCount() != n {
				t.Fatalf("ShardCount = %d, want %d", sh.ShardCount(), n)
			}
			checkLayout(t, facts, sh)
		})
	}
}

// checkLayout holds a store built from facts to the oracles: it holds
// their canonical copy, counts its facts, entities and classes, and every
// read of every pattern of its matrix is what refSelect selects of that
// copy (checkReads), at limits from −1 (none) to 4.
func checkLayout(t *testing.T, facts []Fact, sh *Sharded) {
	t.Helper()
	all := canonicalCopy(facts)
	if got := sh.Facts(); !factsEqual(got, all) {
		t.Errorf("%d shards: Facts\n got: %+v\nwant: %+v", sh.ShardCount(), got, all)
	}
	entities, classes := map[string]bool{}, map[string]bool{}
	for _, f := range all {
		entities[f.Entity] = true
		classes[f.Class] = f.Class != ""
	}
	var want []string
	for c, ok := range classes {
		if ok {
			want = append(want, c)
		}
	}
	slices.Sort(want)
	if sh.Len() != len(all) || sh.EntityCount() != len(entities) || !slices.Equal(sh.Classes(), want) {
		t.Errorf("%d shards: %d facts, %d entities, classes %q; want %d, %d, %q",
			sh.ShardCount(), sh.Len(), sh.EntityCount(), sh.Classes(), len(all), len(entities), want)
	}
	for i, p := range patternMatrix(sh) {
		checkReads(t, fmt.Sprintf("%d shards %#v", sh.ShardCount(), p), sh, all, p, i%6-1)
	}
}

// TestShardedEmptyAndDegenerate covers the edges: empty store, empty
// query on empty store, all facts hashing into few shards.
func TestShardedEmptyAndDegenerate(t *testing.T) {
	empty := NewSharded(nil, 4)
	if empty.Len() != 0 || empty.EntityCount() != 0 {
		t.Errorf("empty sharded store: Len=%d EntityCount=%d", empty.Len(), empty.EntityCount())
	}
	if got := empty.Lookup(Pattern{}); got != nil {
		t.Errorf("wildcard on empty store = %+v, want nil", got)
	}
	if facts, total := empty.LookupN(Pattern{}, 10); facts != nil || total != 0 {
		t.Errorf("LookupN on empty store = %+v, %d", facts, total)
	}
	if got := empty.Entity("nobody"); got != nil {
		t.Errorf("Entity on empty store = %+v", got)
	}
	if got := empty.Classes(); len(got) != 0 {
		t.Errorf("Classes on empty store = %v", got)
	}

	// One entity: everything lands in a single shard, and the merge runs
	// with every other head exhausted from the start.
	one := NewSharded([]Fact{
		{Entity: "E", Class: "C", Attr: "a", Value: "v1", Confidence: 1},
		{Entity: "E", Class: "C", Attr: "a", Value: "v2", Confidence: 1},
	}, 8)
	if got := one.Lookup(Pattern{}); len(got) != 2 {
		t.Errorf("single-shard wildcard = %+v", got)
	}
	if facts, total := one.LookupN(Pattern{}, 1); len(facts) != 1 || total != 2 {
		t.Errorf("single-shard LookupN = %d facts, total %d", len(facts), total)
	}
}
