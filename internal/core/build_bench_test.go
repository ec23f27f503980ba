package core_test

import (
	"context"
	"testing"
	"time"

	"akb/internal/core"
	"akb/internal/store"
)

// buildOnce is the build journey as bench/ times it: corpus → fused KB facts
// at parallelism 1.
func buildOnce(tb testing.TB, seed int64, scale int) []store.Fact {
	res, err := core.New(core.WithSeed(seed), core.WithScale(scale), core.WithParallelism(1)).Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return store.ResultFacts(res)
}

// BenchmarkPipelineBuild times the default pipeline at scale 4 plus
// store.ResultFacts — what bench/ reports as build_s on the datalog
// workload's corpus — and reports the fastest build as best-ms, bench/'s own
// estimator. Profile from here:
//
//	go test ./internal/core -run '^$' -bench PipelineBuild -cpu 1 -cpuprofile cpu.pprof -memprofile mem.pprof
func BenchmarkPipelineBuild(b *testing.B) {
	b.ReportAllocs()
	best := time.Duration(0)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		facts := buildOnce(b, 5, 4)
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
		if len(facts) == 0 {
			b.Fatal("no facts")
		}
	}
	b.ReportMetric(float64(best)/1e6, "best-ms")
}

// TestPipelineAllocations counts the allocations of a seed-1 scale-1 default
// build plus store.ResultFacts, so that an allocation regression on the build
// journey fails here and not only in bench/. Measured 162 084 a build; the
// parent of the change that made the statement path positional made 289 939.
// Narrowing rdf.Term to a kind and a value left the count where it was
// (162 211 before): that saving is bytes, not objects. Numbering the sources
// took 98 off it (162 182 before): few items of a scale-1 run fold. The
// ceiling is 10 % above 162 084.
func TestPipelineAllocations(t *testing.T) {
	const ceiling = 178_300
	allocs := testing.AllocsPerRun(2, func() { buildOnce(t, 1, 1) })
	t.Logf("%.0f allocations a build", allocs)
	if allocs > ceiling {
		t.Errorf("a seed-1 scale-1 build makes %.0f allocations, want at most %d", allocs, ceiling)
	}
}
