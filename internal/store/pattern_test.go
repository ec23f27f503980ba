package store

import (
	"reflect"
	"slices"
	"testing"
)

// patternMatrix is shardedQueries plus Exact variants of every pattern
// that names a value: the matrix the cursor equivalence tests (Select,
// Count, CountEstimate) run against every layout.
func patternMatrix(s *Sharded) []Pattern {
	qs := shardedQueries(s)
	for _, q := range qs {
		if q.Value != "" {
			e := q
			e.Exact = true
			qs = append(qs, e)
		}
	}
	return qs
}

// TestExactValueMatching pins the join semantics: Exact patterns match the
// accepted value verbatim, never via hierarchy generalisation, on the
// indexed read and the brute-force oracle alike.
func TestExactValueMatching(t *testing.T) {
	s := New(testFacts())

	// "Australia" is an ancestor of Adelaide, not an accepted value:
	// hierarchical matching finds the Adelaide fact, exact matching must
	// not.
	if got := s.Lookup(Pattern{Value: "Australia"}); len(got) != 1 {
		t.Fatalf("hierarchical Lookup(Australia) = %d facts, want 1", len(got))
	}
	if got := s.Lookup(Pattern{Value: "Australia", Exact: true}); len(got) != 0 {
		t.Errorf("exact Lookup(Australia) = %+v, want none", got)
	}
	// A leaf value matches both ways.
	for _, exact := range []bool{false, true} {
		got := s.Lookup(Pattern{Value: "Adelaide", Exact: exact})
		if len(got) != 1 || got[0].Entity != "Adelaide Uni" {
			t.Errorf("Lookup(Adelaide, exact=%v) = %+v, want the Adelaide Uni fact", exact, got)
		}
	}
	// Exact composes with other fields, whichever index answers.
	if got := s.Lookup(Pattern{Class: "University", Value: "Australia", Exact: true}); len(got) != 0 {
		t.Errorf("exact class+value lookup = %+v, want none", got)
	}
	if got := s.Lookup(Pattern{Entity: "Susie Fang", Value: "China", Exact: true}); len(got) != 0 {
		t.Errorf("exact entity+value lookup = %+v, want none", got)
	}
	if got := s.Lookup(Pattern{Entity: "Susie Fang", Value: "Wuhan", Exact: true}); len(got) != 1 {
		t.Errorf("exact entity+leaf lookup = %+v, want the Wuhan fact", got)
	}

	// Lookup == the oracle must keep holding with Exact set.
	for _, q := range patternMatrix(s) {
		if got, want := s.Lookup(q), refSelect(s.Facts(), q); !reflect.DeepEqual(got, want) {
			t.Errorf("Lookup(%+v) != the oracle:\n got: %+v\nwant: %+v", q, got, want)
		}
	}
}

// TestCountEstimateUsesPostings pins the estimator to the index it
// advertises: entity-constrained patterns estimate from the entity
// postings even when a broad residual field is present.
func TestCountEstimateUsesPostings(t *testing.T) {
	s := New(testFacts())
	cases := []struct {
		p    Pattern
		want int
	}{
		{Pattern{}, s.Len()},
		{Pattern{Entity: "Casablanca"}, 3},
		{Pattern{Entity: "Casablanca", Attr: "language"}, 2},
		{Pattern{Entity: "missing"}, 0},
		{Pattern{Class: "Film"}, 3},
		{Pattern{Attr: "language"}, 2},
		// Value postings include hierarchy generalisations, so the exact
		// pattern's estimate stays the superset length — an upper bound.
		{Pattern{Value: "Australia"}, 1},
		{Pattern{Value: "Australia", Exact: true}, 1},
	}
	for _, c := range cases {
		if got := s.CountEstimate(c.p); got != c.want {
			t.Errorf("CountEstimate(%+v) = %d, want %d", c.p, got, c.want)
		}
	}
}

// factsEqual compares facts, every field of Fact; a fact's ancestors are nil or
// not on both sides, as reflect.DeepEqual has them.
func factsEqual(a, b []Fact) bool {
	return slices.EqualFunc(a, b, func(x, y Fact) bool {
		return x.Entity == y.Entity && x.Attr == y.Attr && x.Value == y.Value && x.Class == y.Class &&
			x.Confidence == y.Confidence && x.Sources == y.Sources &&
			(x.Ancestors == nil) == (y.Ancestors == nil) && slices.Equal(x.Ancestors, y.Ancestors)
	})
}
