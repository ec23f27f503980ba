package fusion_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"akb/internal/core"
	"akb/internal/experiments"
	"akb/internal/fusion"
	"akb/internal/rdf"
)

// The tests below run over a pipeline run's own statements — 37 sources,
// most items covered by one or two of them — and over the same with two
// copier sources injected, which is where copy detection finds something.

var seedOneRun struct {
	once sync.Once
	res  *core.Result
	err  error
}

func pipelineRun(t testing.TB) *core.Result {
	t.Helper()
	seedOneRun.once.Do(func() {
		seedOneRun.res, seedOneRun.err = core.New().Run(context.Background())
	})
	if seedOneRun.err != nil {
		t.Fatal(seedOneRun.err)
	}
	return seedOneRun.res
}

func pipelineStatementSets(t testing.TB) map[string][]rdf.Statement {
	res := pipelineRun(t)
	return map[string][]rdf.Statement{
		"pipeline":     res.Statements,
		"with-copiers": experiments.InjectCopiers(res, 2),
	}
}

// sameResult compares two fusion results to the last bit: the decisions in
// their order, truths, beliefs and implied truths, and the source qualities.
func sameResult(t *testing.T, label string, got, want *fusion.Result) {
	t.Helper()
	if len(got.Decisions) != len(want.Decisions) {
		t.Fatalf("%s: %d decisions, want %d", label, len(got.Decisions), len(want.Decisions))
	}
	for i := range want.Decisions {
		g, w := &got.Decisions[i], &want.Decisions[i]
		if g.Item.Key != w.Item.Key {
			t.Fatalf("%s: decision %d is about %s, want %s", label, i, g.Item.Key, w.Item.Key)
		}
		if !reflect.DeepEqual(g.Truths, w.Truths) {
			t.Errorf("%s: %s truths %v, want %v", label, g.Item.Key, g.Truths, w.Truths)
		}
		if !reflect.DeepEqual(g.Implied, w.Implied) {
			t.Errorf("%s: %s implied %v, want %v", label, g.Item.Key, g.Implied, w.Implied)
		}
		if len(g.Belief) != len(w.Belief) {
			t.Fatalf("%s: %s has %d beliefs, want %d", label, g.Item.Key, len(g.Belief), len(w.Belief))
		}
		for k := range w.Belief {
			if math.Float64bits(g.Belief[k]) != math.Float64bits(w.Belief[k]) {
				t.Errorf("%s: %s belief in %v is %v, want %v", label, g.Item.Key, g.Item.Values[k].Value, g.Belief[k], w.Belief[k])
			}
		}
	}
	if len(got.SourceQuality) != len(want.SourceQuality) {
		t.Errorf("%s: %d source qualities, want %d", label, len(got.SourceQuality), len(want.SourceQuality))
	}
	for s, w := range want.SourceQuality {
		if g, ok := got.SourceQuality[s]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: quality of %s is %v, want %v", label, s, g, w)
		}
	}
}

// TestPipelineClaimsMatchReference: on a run's statements, BuildClaims at
// every granularity and DetectCorrelations are the references' answers.
func TestPipelineClaimsMatchReference(t *testing.T) {
	for name, stmts := range pipelineStatementSets(t) {
		for _, g := range []fusion.Granularity{fusion.BySource, fusion.BySourceExtractor, fusion.ByExtractor} {
			label := fmt.Sprintf("%s granularity %d", name, g)
			c := fusion.BuildClaims(stmts, g)
			if !reflect.DeepEqual(c, fusion.ReferenceBuildClaims(stmts, g)) {
				t.Errorf("%s: BuildClaims differs from the reference", label)
			}
			got := fusion.DetectCorrelations(c, fusion.CorrelationConfig{})
			want := fusion.ReferenceDetectCorrelations(c, fusion.CorrelationConfig{})
			if !reflect.DeepEqual(got.Pairs, want.Pairs) || !reflect.DeepEqual(got.ClusterOf, want.ClusterOf) ||
				!reflect.DeepEqual(got.Clusters(), want.Clusters()) {
				t.Errorf("%s: DetectCorrelations differs from the reference\n got  %v\n want %v", label, got.Pairs, want.Pairs)
			}
			for _, s := range c.SourceNames {
				if got.Weight(s) != want.Weight(s) {
					t.Errorf("%s: Weight(%s) = %v, want %v", label, s, got.Weight(s), want.Weight(s))
				}
			}
			if name == "with-copiers" && g != fusion.ByExtractor && len(got.Pairs) == 0 {
				t.Errorf("%s: no correlated pair among injected copiers", label)
			}
		}
	}
}

// TestMultiTruthBitIdentical: hoisting the two logarithms of a source out
// of the cells and the claim weights out of the loop changes no bit of any
// belief or source quality, with and without confidences and the
// correlation discount, at 1 and 4 workers. (TestGoldenFusionDigest stores
// six digits.)
func TestMultiTruthBitIdentical(t *testing.T) {
	for name, stmts := range pipelineStatementSets(t) {
		c := fusion.BuildClaims(stmts, fusion.BySourceExtractor)
		corr := fusion.DetectCorrelations(c, fusion.CorrelationConfig{})
		for _, weighted := range []bool{false, true} {
			for _, discount := range []*fusion.Correlations{nil, corr} {
				want := fusion.ReferenceFuse(&fusion.MultiTruth{Weighted: weighted, Discount: discount, Workers: 1}, c)
				for _, workers := range []int{1, 4} {
					m := &fusion.MultiTruth{Weighted: weighted, Discount: discount, Workers: workers}
					if err := fusion.DiffReference(c, m.Fuse(c), want); err != nil {
						t.Errorf("%s %s workers %d: %v", name, m.Name(), workers, err)
					}
				}
			}
		}
	}
}

// TestFullInvariantUnderStatementPermutation: the default path end to end —
// BuildClaims, copy detection, the fold, multi-truth EM — decides the same,
// to the last bit, whatever order the statements arrive in.
func TestFullInvariantUnderStatementPermutation(t *testing.T) {
	forest := pipelineRun(t).World.Hier
	for name, stmts := range pipelineStatementSets(t) {
		fuse := func(stmts []rdf.Statement) *fusion.Result {
			c := fusion.BuildClaims(stmts, fusion.BySourceExtractor)
			return (&fusion.Full{Forest: forest, Workers: 1}).Fuse(c)
		}
		want := fuse(stmts)
		r := rand.New(rand.NewSource(22))
		for round := 0; round < 2; round++ {
			shuffled := append([]rdf.Statement(nil), stmts...)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			sameResult(t, fmt.Sprintf("%s shuffle %d", name, round), fuse(shuffled), want)
		}
	}
}

// TestBuildClaimsAllocationBound counts the work: BuildClaims allocates per
// distinct item (its key) and a fixed number of arrays, not per statement.
// Measured 0.6 allocations a statement on this run; the string-keyed
// reference makes 10.3.
func TestBuildClaimsAllocationBound(t *testing.T) {
	stmts := pipelineRun(t).Statements
	allocs := testing.AllocsPerRun(3, func() { fusion.BuildClaims(stmts, fusion.BySourceExtractor) })
	per := allocs / float64(len(stmts))
	t.Logf("%.0f allocations for %d statements: %.2f a statement", allocs, len(stmts), per)
	if per > 2 {
		t.Errorf("%.2f allocations a statement, want at most 2", per)
	}
}

// BenchmarkFusionDefaultPath times the three calls of core's fuse stage
// over a pipeline run's own statements (seed 3, scale 4: 37 sources, each
// item covered by 1.7 of them on average). The other fusion benchmarks
// give every item all of their 8 synthetic sources, which is not that
// shape. Profile from here:
//
//	go test ./internal/fusion -run '^$' -bench FusionDefaultPath -cpuprofile cpu.pprof
func BenchmarkFusionDefaultPath(b *testing.B) {
	res, err := core.New(core.WithSeed(3), core.WithScale(4)).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	claims := fusion.BuildClaims(res.Statements, fusion.BySourceExtractor)
	b.Run("BuildClaims", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fusion.BuildClaims(res.Statements, fusion.BySourceExtractor)
		}
	})
	b.Run("DetectCorrelations", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fusion.DetectCorrelations(claims, fusion.CorrelationConfig{})
		}
	})
	b.Run("FullFuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			(&fusion.Full{Forest: res.World.Hier, Workers: 1}).Fuse(claims)
		}
	})
}
