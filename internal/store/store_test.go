package store

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"akb/internal/core"
	"akb/internal/kb"
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

func TestLookupMatchesScan(t *testing.T) {
	s := New(testFacts())
	queries := []Pattern{
		{},
		{Entity: "Casablanca"},
		{Entity: "Casablanca", Attr: "language"},
		{Entity: "missing"},
		{Entity: "Casablanca", Attr: "missing"},
		{Class: "Film"},
		{Class: "Book", Attr: "author"},
		{Attr: "language"},
		{Attr: "language", Value: "French"},
		{Value: "China"},     // hierarchy: matches Wuhan via ancestors
		{Value: "Australia"}, // hierarchy: matches Adelaide
		{Value: "Adelaide"},  // exact leaf
		{Value: "missing"},
		{Class: "Film", Value: "English"},
		{Class: "University", Attr: "location", Value: "Australia"},
	}
	for _, q := range queries {
		got, want := s.Lookup(q), refSelect(s.Facts(), q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Lookup(%+v) != the oracle:\n got: %+v\nwant: %+v", q, got, want)
		}
	}
}

func TestMultiTruthTriples(t *testing.T) {
	s := New(testFacts())
	vals := s.Triples("Casablanca", "language")
	if len(vals) != 2 {
		t.Fatalf("Triples = %+v, want both accepted languages", vals)
	}
	if vals[0].Value != "English" || vals[1].Value != "French" {
		t.Errorf("values out of canonical order: %+v", vals)
	}
	if vals[0].Confidence != 0.92 || vals[0].Sources != 4 {
		t.Errorf("annotations lost: %+v", vals[0])
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

func TestNewDeduplicatesAndSorts(t *testing.T) {
	dup := append(testFacts(), testFacts()...)
	s := New(dup)
	if s.Len() != 7 {
		t.Fatalf("dedup failed: %d facts", s.Len())
	}
	facts := s.Facts()
	for i := 1; i < len(facts); i++ {
		if compareKeys(&facts[i], &facts[i-1]) <= 0 {
			t.Fatalf("facts out of order at %d: %+v before %+v", i, facts[i-1], facts[i])
		}
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

// TestLookupN pins the capped-lookup contract on the flat store: the
// returned facts are the first `limit` of Lookup's answer, the total is
// the full match count, and non-positive limits mean unlimited.
func TestLookupN(t *testing.T) {
	s := New(testFacts())
	queries := []Pattern{
		{}, {Entity: "Casablanca"}, {Class: "Film"}, {Attr: "language"},
		{Value: "China"}, {Entity: "missing"},
	}
	for _, q := range queries {
		full := s.Lookup(q)
		for _, limit := range []int{-1, 0, 1, 2, len(full), len(full) + 10} {
			got, total := s.LookupN(q, limit)
			if total != len(full) {
				t.Errorf("LookupN(%+v, %d) total = %d, want %d", q, limit, total, len(full))
			}
			want := full
			if limit > 0 && limit < len(full) {
				want = full[:limit]
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("LookupN(%+v, %d) = %+v, want %+v", q, limit, got, want)
			}
		}
	}
}

// smallPipeline runs a scaled-down end-to-end pipeline for integration
// tests; the result is cached per test binary since multiple tests want it.
var smallPipeline = sync.OnceValues(func() (*core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.World = kb.WorldConfig{Seed: 1, EntitiesPerClass: 10, AttrsPerEntity: 8}
	cfg.Stream.TotalRecords = 3000
	cfg.Sites.SitesPerClass = 2
	cfg.Sites.PagesPerSite = 5
	cfg.Corpus.DocsPerClass = 5
	return core.New(core.WithConfig(cfg)).Run(context.Background())
})

// TestFromResultAgainstFusion cross-checks the snapshot against the live
// fusion result it came from: every accepted truth appears exactly once
// with its belief, and the indexed store answers the same as a scan.
func TestFromResultAgainstFusion(t *testing.T) {
	res, err := smallPipeline()
	if err != nil {
		t.Fatal(err)
	}
	s := New(ResultFacts(res))
	if s.Len() == 0 {
		t.Fatal("empty store from live pipeline")
	}
	truths := 0
	for _, d := range res.Fused().Decisions {
		truths += len(d.Truths)
	}
	if s.Len() != truths {
		t.Errorf("store has %d facts, fusion accepted %d truths", s.Len(), truths)
	}
	// Every fact must carry the entity's real class and a confidence.
	for _, f := range s.Facts() {
		if f.Class == "" {
			t.Errorf("fact without class: %+v", f)
		}
		if f.Confidence <= 0 {
			t.Errorf("fact without belief: %+v", f)
		}
	}
	// Index answers must equal the oracle's on live data too.
	for _, class := range s.Classes() {
		q := Pattern{Class: class}
		if !reflect.DeepEqual(s.Lookup(q), refSelect(s.Facts(), q)) {
			t.Errorf("Lookup != the oracle for class %q", class)
		}
	}
	ent := s.Facts()[0].Entity
	for _, q := range []Pattern{{Entity: ent}, {Entity: ent, Attr: s.Facts()[0].Attr}} {
		if !reflect.DeepEqual(s.Lookup(q), refSelect(s.Facts(), q)) {
			t.Errorf("Lookup != the oracle for %+v", q)
		}
	}
}

// TestConcurrentReaders hammers a shared store from many goroutines; run
// under -race it proves the lock-free read path is actually lock-free
// safe (nothing is written after New).
func TestConcurrentReaders(t *testing.T) {
	s := New(testFacts())
	queries := []Pattern{
		{Entity: "Casablanca"},
		{Class: "Film"},
		{Value: "Australia"},
		{Attr: "language"},
		{},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := queries[(g+i)%len(queries)]
				if got, want := s.Lookup(q), refSelect(s.Facts(), q); len(got) != len(want) {
					t.Errorf("goroutine %d: Lookup/%d oracle/%d for %+v", g, len(got), len(want), q)
					return
				}
				s.Entity("Moby Dick")
				s.Triples("Casablanca", "language")
				s.Classes()
			}
		}(g)
	}
	wg.Wait()
}

// TestIndexReadsATenthOfTheStore is the index-vs-scan criterion in counted
// work: on the default seed-1 pipeline KB held in one shard, every query of
// a representative mix — point lookups, a per-class sweep, a value match
// and a hierarchy-ancestor match — walks a candidate list at most a tenth
// of the store (CountEstimate is the length of the list the cursor walks,
// TestCursorWalksShortestList) and answers exactly what the brute-force
// oracle does.
func TestIndexReadsATenthOfTheStore(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short")
	}
	res, err := core.New().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ResultFacts(res))
	facts := s.Facts()
	anc := slices.IndexFunc(facts, func(f Fact) bool { return len(f.Ancestors) > 0 })
	if anc < 0 {
		t.Fatal("no fact with hierarchy ancestors in the default KB")
	}
	ent, attr := facts[0].Entity, facts[0].Attr
	for _, p := range []Pattern{
		{Entity: ent},
		{Entity: ent, Attr: attr},
		{Class: s.Classes()[0], Attr: attr},
		{Attr: attr, Value: facts[0].Value},
		{Value: facts[anc].Ancestors[len(facts[anc].Ancestors)-1]},
	} {
		got, want, est := s.Lookup(p), refSelect(facts, p), s.CountEstimate(p)
		if len(got) == 0 || len(got) != len(want) {
			t.Errorf("%+v: Lookup returned %d facts, the oracle %d", p, len(got), len(want))
		}
		if est < len(got) || est*10 > s.Len() {
			t.Errorf("%+v: index walks %d candidates for %d matches in a store of %d, want at most a tenth",
				p, est, len(got), s.Len())
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
