package store

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testFacts is a small hand-built KB exercising every index dimension:
// multiple classes, multi-truth attributes, hierarchy ancestors and an
// uncovered (classless) entity.
func testFacts() []Fact {
	return []Fact{
		{Entity: "Casablanca", Class: "Film", Attr: "director", Value: "Michael Curtiz", Confidence: 0.97, Sources: 5},
		{Entity: "Casablanca", Class: "Film", Attr: "language", Value: "English", Confidence: 0.92, Sources: 4},
		{Entity: "Casablanca", Class: "Film", Attr: "language", Value: "French", Confidence: 0.71, Sources: 2},
		{Entity: "Susie Fang", Class: "", Attr: "birth place", Value: "Wuhan", Confidence: 0.88, Sources: 3,
			Ancestors: []string{"Hubei", "China"}},
		{Entity: "Moby Dick", Class: "Book", Attr: "author", Value: "Herman Melville", Confidence: 0.99, Sources: 7},
		{Entity: "Moby Dick", Class: "Book", Attr: "setting", Value: "Nantucket", Confidence: 0.64, Sources: 1,
			Ancestors: []string{"Massachusetts", "United States"}},
		{Entity: "Adelaide Uni", Class: "University", Attr: "location", Value: "Adelaide", Confidence: 0.93, Sources: 4,
			Ancestors: []string{"South Australia", "Australia"}},
	}
}

func TestEntityAndCounts(t *testing.T) {
	s := New(testFacts())
	if s.Len() != 7 {
		t.Errorf("Len = %d, want 7", s.Len())
	}
	if s.EntityCount() != 4 {
		t.Errorf("EntityCount = %d, want 4", s.EntityCount())
	}
	if got := s.Classes(); !reflect.DeepEqual(got, []string{"Book", "Film", "University"}) {
		t.Errorf("Classes = %v", got)
	}
	if facts := s.Entity("Moby Dick"); len(facts) != 2 {
		t.Errorf("Entity(Moby Dick) = %+v", facts)
	}
	if facts := s.Entity("nobody"); facts != nil {
		t.Errorf("unknown entity returned %+v", facts)
	}
}

// TestNewRefusesUnservableFacts: a NaN or infinite confidence, or a
// negative source count, is refused where the store is built — by New and
// by NewSharded on any number of shards — with a panic that names the fact,
// not first by the snapshot writer or by the JSON encoder of a response.
func TestNewRefusesUnservableFacts(t *testing.T) {
	for _, bad := range []struct {
		fact Fact
		why  string
	}{
		{Fact{Entity: "Casablanca", Attr: "a", Value: "v", Confidence: math.NaN()}, "non-finite confidence NaN"},
		{Fact{Entity: "Casablanca", Attr: "a", Value: "v", Confidence: math.Inf(1)}, "non-finite confidence +Inf"},
		{Fact{Entity: "Casablanca", Attr: "a", Value: "v", Confidence: math.Inf(-1)}, "non-finite confidence -Inf"},
		{Fact{Entity: "Casablanca", Attr: "a", Value: "v", Sources: -1}, "negative source count -1"},
	} {
		for _, shards := range []int{0, 1, 3, 8} {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, bad.why) || !strings.Contains(msg, "Casablanca") {
						t.Errorf("%d shards, %+v: panic %q, want one naming the fact and %q", shards, bad.fact, msg, bad.why)
					}
				}()
				facts := append(testFacts(), bad.fact)
				if shards == 0 {
					New(facts)
				} else {
					NewSharded(facts, shards)
				}
			}()
		}
	}
}

func BenchmarkLookupVsScanSmall(b *testing.B) {
	// A quick sanity benchmark on synthetic data; the criterion itself is
	// TestIndexReadsATenthOfTheStore, in counted work.
	facts := make([]Fact, 0, 5000)
	for i := 0; i < 5000; i++ {
		facts = append(facts, Fact{
			Entity: fmt.Sprintf("E%d", i%500),
			Class:  fmt.Sprintf("C%d", i%5),
			Attr:   fmt.Sprintf("a%d", i%20),
			Value:  fmt.Sprintf("v%d", i),
		})
	}
	s := New(facts)
	q := Pattern{Entity: "E42", Attr: "a2"}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Lookup(q)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refSelect(s.Facts(), q)
		}
	})
}
