package core_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"akb/internal/core"
	"akb/internal/store"
)

// allStages turns on every optional stage: list pages, temporal extraction,
// entity discovery and alignment.
var allStages = []core.Option{
	core.WithListPages(), core.WithTemporal(), core.WithEntityDiscovery(), core.WithAlignment(),
}

// buildOnce is the build journey as bench/ times it: corpus → fused KB facts
// at parallelism 1.
func buildOnce(tb testing.TB, seed int64, scale int, opts ...core.Option) []store.Fact {
	opts = append([]core.Option{core.WithSeed(seed), core.WithScale(scale), core.WithParallelism(1)}, opts...)
	res, err := core.New(opts...).Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return store.ResultFacts(res)
}

// BenchmarkPipelineBuild times a build plus store.ResultFacts — `default`
// the default pipeline at scale 4, what bench/ reports as build_s on the
// datalog workload's corpus, and `all-stages` every optional stage at scale
// 2, serve-wide's build — and reports the fastest build as best-ms, bench/'s
// own estimator. Profile from here:
//
//	go test ./internal/core -run '^$' -bench PipelineBuild/all-stages -cpu 1 -cpuprofile cpu.pprof -memprofile mem.pprof
func BenchmarkPipelineBuild(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale int
		opts  []core.Option
	}{
		{"default", 4, nil},
		{"all-stages", 2, allStages},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			best := time.Duration(0)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				facts := buildOnce(b, 5, c.scale, c.opts...)
				if d := time.Since(start); best == 0 || d < best {
					best = d
				}
				if len(facts) == 0 {
					b.Fatal("no facts")
				}
			}
			b.ReportMetric(float64(best)/1e6, "best-ms")
		})
	}
}

// TestPipelineAllocations counts the allocations and the bytes allocated
// (runtime.MemStats.TotalAlloc) of a seed-1 scale-1 build plus
// store.ResultFacts, default and with every optional stage, so that an
// allocation regression on the build journey fails here and not only in
// bench/. The default build makes 136 345 allocations of 14.58 MB (156 804
// of 15.91 MB while an entity's values and a KB fact's sub-fields were
// maps); the parent of the change that made the statement path positional
// made 289 939. Narrowing rdf.Term to a kind and a value left the count
// where it was (162 211 before): that saving is bytes, not objects.
// Numbering the sources took 98 off it (162 182 before): few items of a
// scale-1 run fold. Minting each statement once, in the union, took 1.06 MB
// off the bytes (17.92 MB before). Grouping fusion items without spelling
// their keys, and recovering each name once a run, took 4 844 allocations
// and 0.95 MB off (161 648 of 16.86 MB before). The all-stages build makes
// 160 940 allocations of 21.28 MB (182 347 of 22.64 MB with the maps,
// 188 871 of 24.09 MB before that, 25.66 MB before the union minted); it
// made 250 352 allocations while entity discovery linked every fact against
// every known name and alignment rebuilt names and item keys per statement.
// Each ceiling is 10 % above its measured value.
func TestPipelineAllocations(t *testing.T) {
	for _, c := range []struct {
		name         string
		opts         []core.Option
		ceiling      float64
		bytesCeiling uint64
	}{
		{"default", nil, 150_000, 16_040_000},
		{"all-stages", allStages, 177_000, 23_410_000},
	} {
		allocs := testing.AllocsPerRun(2, func() { buildOnce(t, 1, 1, c.opts...) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		buildOnce(t, 1, 1, c.opts...)
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.0f allocations, %d bytes a build", c.name, allocs, bytes)
		if allocs > c.ceiling {
			t.Errorf("a seed-1 scale-1 %s build makes %.0f allocations, want at most %.0f", c.name, allocs, c.ceiling)
		}
		if bytes > c.bytesCeiling {
			t.Errorf("a seed-1 scale-1 %s build allocates %d bytes, want at most %d", c.name, bytes, c.bytesCeiling)
		}
	}
}

// TestPipelineRetainedHeap measures what a build holds: the in-use heap
// (runtime.MemStats.HeapAlloc after a GC) a seed-1 scale-1 Run adds while
// its Result is kept alive, default and with every optional stage, after a
// first build has set up whatever the packages keep. So a change that keeps
// more of a build fails here, where TestPipelineAllocations sees only what
// it allocates. The default build holds 5.91 MB and the all-stages build
// 7.04 MB; with a map per entity and per KB fact they held 6.07 MB and
// 7.21 MB, and while every fusion item kept its spelled key 6.39 MB and
// 7.56 MB. Each ceiling is 10 % above its measured value.
func TestPipelineRetainedHeap(t *testing.T) {
	for _, c := range []struct {
		name    string
		opts    []core.Option
		ceiling uint64
	}{
		{"default", nil, 6_510_000},
		{"all-stages", allStages, 7_740_000},
	} {
		opts := append([]core.Option{core.WithSeed(1), core.WithScale(1), core.WithParallelism(1)}, c.opts...)
		run := func() *core.Result {
			res, err := core.New(opts...).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		run()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := run()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(res)
		held := after.HeapAlloc - before.HeapAlloc
		t.Logf("%s: a build holds %d bytes", c.name, held)
		if held > c.ceiling {
			t.Errorf("a seed-1 scale-1 %s build holds %d bytes of heap, want at most %d", c.name, held, c.ceiling)
		}
	}
}
