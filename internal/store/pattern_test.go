package store

import (
	"fmt"
	"reflect"
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

// TestIterateAndSelectMatchLookup proves the cursor is the same relation
// Lookup materialises — same facts, same canonical order — on the flat
// store and on every sharded layout, and that Count, taken after any number
// of Nexts, is exactly what was left.
func TestIterateAndSelectMatchLookup(t *testing.T) {
	facts := testFacts()
	flat := New(facts)
	layouts := map[string]*Sharded{"flat": flat}
	for _, n := range []int{1, 3, 8} {
		layouts[fmt.Sprintf("sharded-%d", n)] = NewSharded(facts, n)
	}
	for name, q := range layouts {
		t.Run(name, func(t *testing.T) {
			for _, p := range patternMatrix(flat) {
				want := refSelect(flat.Facts(), p)
				if got := q.Lookup(p); !factsEqual(got, want) {
					t.Errorf("Lookup(%+v):\n got: %+v\nwant: %+v", p, got, want)
				}
				for taken := 0; taken <= len(want)+1; taken++ {
					var pulled []Fact
					cur := q.Select(p)
					for len(pulled) < taken && cur.Next() {
						pulled = append(pulled, cur.Fact())
					}
					if !factsEqual(pulled, want[:min(taken, len(want))]) {
						t.Errorf("Select(%+v), %d Nexts:\n got: %+v\nwant the first of: %+v", p, taken, pulled, want)
					}
					if left := cur.Count(); left != len(want)-len(pulled) {
						t.Errorf("Select(%+v): Count after %d of %d = %d", p, len(pulled), len(want), left)
					}
					if cur.Next() || cur.Count() != 0 {
						t.Errorf("Select(%+v): a counted cursor still yields", p)
					}
				}

				// The estimate is a free upper bound: never below the true
				// cardinality, never above the store size.
				if est := q.CountEstimate(p); est < len(want) || est > flat.Len() {
					t.Errorf("CountEstimate(%+v) = %d outside [%d, %d]", p, est, len(want), flat.Len())
				}
			}
		})
	}
}

// TestCursorCountsWhatItHasNotReturned pins the early-stop contract: a
// consumer may stop pulling at any point, and Count then reports the rest
// without returning it.
func TestCursorCountsWhatItHasNotReturned(t *testing.T) {
	for _, s := range []*Sharded{New(testFacts()), NewSharded(testFacts(), 3)} {
		cur := s.Select(Pattern{})
		for i := 0; i < 3; i++ {
			if !cur.Next() {
				t.Fatalf("%d shards: stream ended after %d facts", s.ShardCount(), i)
			}
		}
		if left := cur.Count(); left != s.Len()-3 {
			t.Fatalf("%d shards: Count after 3 of %d = %d", s.ShardCount(), s.Len(), left)
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

func factsEqual(a, b []Fact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
