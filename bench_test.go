// Package akb_test benchmarks every experiment of the reproduction: one
// benchmark per paper table/figure (E1-E7 in DESIGN.md) plus per-method
// fusion benchmarks. Run with:
//
//	go test -bench=. -benchmem
package akb_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"akb/internal/align"
	"akb/internal/core"
	"akb/internal/eval"
	"akb/internal/experiments"
	"akb/internal/fusion"
	"akb/internal/obs"
	"akb/internal/rdf"
	"akb/internal/resilience"
)

// BenchmarkTable1KBStats regenerates Table 1 (E1): materialising the four
// representative KBs and counting entities and attributes.
func BenchmarkTable1KBStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(int64(i + 1))
		if len(rows) != 4 {
			b.Fatal("bad Table 1")
		}
	}
}

// BenchmarkTable2KBExtraction regenerates Table 2 (E2): synthetic DBpedia
// and Freebase generation plus existing-KB attribute extraction and
// combination.
func BenchmarkTable2KBExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(int64(i + 1))
		if len(rows) != 5 {
			b.Fatal("bad Table 2")
		}
	}
}

// BenchmarkTable3QueryStream regenerates Table 3 (E3) at three stream
// scales; /100 is the default experiment scale (292,839 records).
func BenchmarkTable3QueryStream(b *testing.B) {
	for _, scale := range []int{1000, 200, 100} {
		records := 29283918 / scale
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := experiments.Table3(experiments.Table3Config{Seed: int64(i + 1), Scale: scale})
				if len(rows) != 5 {
					b.Fatal("bad Table 3")
				}
			}
		})
	}
}

// runPipeline runs a fault-free pipeline as a benchmark's fixture.
func runPipeline(b *testing.B, cfg core.Config) *core.Result {
	b.Helper()
	res, err := core.New(core.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFigure1Pipeline runs the full extraction+fusion pipeline (E4).
func BenchmarkFigure1Pipeline(b *testing.B) {
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := experiments.Pipeline(cfg)
		if rep.AugmentedTriples == 0 {
			b.Fatal("empty pipeline")
		}
	}
}

// BenchmarkAlgorithm1DOMExtraction measures Algorithm 1 (E5) across website
// counts: DOM parsing, entity recognition, tag-path induction and
// extraction.
func BenchmarkAlgorithm1DOMExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.DOMSweep(int64(i + 1))
		if len(rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFusionMethods measures each fusion method (E6) on the same
// pipeline-derived claim set.
func BenchmarkFusionMethods(b *testing.B) {
	res := runPipeline(b, core.DefaultConfig())
	claims := fusion.BuildClaims(res.Statements, fusion.BySourceExtractor)
	scorer := &eval.Scorer{World: res.World}
	for _, m := range fusion.AllMethods(res.World.Hier) {
		m := m
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var metrics eval.Metrics
			for i := 0; i < b.N; i++ {
				r := m.Fuse(claims)
				metrics = scorer.ScoreFusion(r)
			}
			b.ReportMetric(metrics.Precision(), "precision")
			b.ReportMetric(metrics.Recall(), "recall")
			b.ReportMetric(metrics.F1(), "F1")
		})
	}
}

// BenchmarkFusionAblations measures the E7 ablation suite end to end.
func BenchmarkFusionAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Ablations(int64(i + 1))
		if len(rows) != 8 {
			b.Fatal("bad ablations")
		}
	}
}

// BenchmarkClaimBuilding measures grouping raw statements into fusion
// claims, the shuffle step every fusion run pays.
func BenchmarkClaimBuilding(b *testing.B) {
	res := runPipeline(b, core.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := fusion.BuildClaims(res.Statements, fusion.BySourceExtractor)
		if len(c.Items) == 0 {
			b.Fatal("no claims")
		}
	}
}

// BenchmarkAugmentedExport measures N-Triples serialisation of the final KB.
func BenchmarkAugmentedExport(b *testing.B) {
	res := runPipeline(b, core.DefaultConfig())
	triples := res.Augmented.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rdf.WriteNTriples(discard{}, triples); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkAlignment measures the pre-fusion normalisation step on a
// synonym- and typo-laden pipeline output (E8).
func BenchmarkAlignment(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Sites.SynonymProb = 0.3
	cfg.Sites.TypoProb = 0.1
	res := runPipeline(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := align.Normalize(res.Statements, align.DefaultConfig())
		if len(out) == 0 {
			b.Fatal("empty alignment output")
		}
	}
}

// BenchmarkEntityDiscovery measures the coverage sweep of the joint
// entity-linking-and-discovery extension (E9).
func BenchmarkEntityDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.EntityDiscovery(int64(i + 1))
		if len(rows) != 4 {
			b.Fatal("bad discovery sweep")
		}
	}
}

// BenchmarkCalibration measures belief-bucket calibration (E10).
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Calibration(int64(i+1), 10)
		if len(rows) != 10 {
			b.Fatal("bad calibration")
		}
	}
}

// BenchmarkTemporal measures temporal extraction and timeline fusion across
// the noise sweep (E11).
func BenchmarkTemporal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Temporal(int64(i + 1))
		if len(rows) != 4 {
			b.Fatal("bad temporal sweep")
		}
	}
}

// BenchmarkListExtraction measures multi-record list-page mining.
func BenchmarkListExtraction(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.ListPages = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := runPipeline(b, cfg)
		if res.Lists.Records == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkGranularity measures the provenance-granularity comparison (E13).
func BenchmarkGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Granularity(int64(i + 1))
		if len(rows) != 6 {
			b.Fatal("bad granularity rows")
		}
	}
}

// BenchmarkScalability measures the world-size scaling experiment (E14).
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Scalability(int64(i + 1))
		if len(rows) != 4 {
			b.Fatal("bad scale rows")
		}
	}
}

// BenchmarkSupervisorOverhead measures the per-stage cost of the
// resilience harness itself: a no-op stage run under the supervisor with
// retries, fault lookup and health accounting enabled (faults never fire).
func BenchmarkSupervisorOverhead(b *testing.B) {
	sup := &resilience.Supervisor{
		Seed:   1,
		Faults: &resilience.FaultPlan{Seed: 1, Stages: map[string]resilience.StageFault{"other": {FailProb: 1}}},
	}
	st := resilience.Stage{
		Name:  "noop",
		Retry: resilience.DefaultRetry(),
		Run:   func(context.Context) error { return nil },
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rep := sup.Run(ctx, st); rep.Health != resilience.OK {
			b.Fatal("noop stage failed")
		}
	}
}

// BenchmarkSupervisedPipeline runs the full pipeline through Pipeline.Run —
// the supervised path — so its cost can be compared against
// BenchmarkFigure1Pipeline (the same run plus the experiment's report).
func BenchmarkSupervisedPipeline(b *testing.B) {
	cfg := core.DefaultConfig()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.New(core.WithConfig(cfg)).Run(ctx)
		if err != nil || res.Augmented.Len() == 0 {
			b.Fatalf("pipeline failed: %v", err)
		}
	}
}

// BenchmarkPipelineTelemetry runs the supervised pipeline with the full
// telemetry layer attached — spans, counters and latency histograms on
// every stage — and writes the final iteration's RunReport to
// BENCH_pipeline.json. CI archives that file per commit, so the per-stage
// duration and throughput trajectory is diffable across PRs. Comparing
// against BenchmarkSupervisedPipeline gives the telemetry overhead.
func BenchmarkPipelineTelemetry(b *testing.B) {
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	var last *obs.RunReport
	for i := 0; i < b.N; i++ {
		run := obs.NewRun()
		res, err := core.New(core.WithConfig(cfg)).Run(obs.Into(context.Background(), run))
		if err != nil || res.Augmented.Len() == 0 {
			b.Fatalf("pipeline failed: %v", err)
		}
		rr, err := run.Report(res.Health())
		if err != nil {
			b.Fatal(err)
		}
		if len(rr.RootSpans()) == 0 || len(rr.Metrics) == 0 {
			b.Fatal("telemetry run recorded no spans or metrics")
		}
		last = rr
	}
	b.StopTimer()
	f, err := os.Create("BENCH_pipeline.json")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := last.WriteJSON(f); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChaosDegradedPipeline measures the degraded path: every
// optional stage fails permanently at 100%, so the run is the mandatory
// spine (substrates, KB extraction, fusion, augmentation) plus
// supervision and degradation bookkeeping.
func BenchmarkChaosDegradedPipeline(b *testing.B) {
	cfg := core.DefaultConfig()
	plan := &resilience.FaultPlan{Seed: 1, Stages: map[string]resilience.StageFault{}}
	for _, st := range core.OptionalStageNames() {
		plan.Stages[st] = resilience.StageFault{FailProb: 1}
	}
	cfg.Faults = plan
	cfg.Retry = resilience.RetryPolicy{MaxAttempts: 1}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.New(core.WithConfig(cfg)).Run(ctx)
		if err != nil {
			b.Fatalf("degraded run failed hard: %v", err)
		}
		if len(res.Health().Degraded()) == 0 {
			b.Fatal("no degradation under full optional-stage faults")
		}
	}
}

// BenchmarkParallelPipeline measures the DAG-scheduled pipeline across
// parallelism levels on the default config; parallel=1 is the serial
// baseline the ISSUE-4 speedup criterion compares against. After the
// sweep it writes the speedup trajectory to BENCH_parallel.json (next to
// the BENCH_pipeline.json telemetry report) so CI can archive and diff
// the scaling curve per commit.
//
// Results key on (GOMAXPROCS, parallelism) with last-write-wins: under
// -cpu each sub-benchmark repeats per proc count, and with -benchtime=1x
// the first proc count reuses the run1 trial (golang.org/issue/32051),
// which executes at whatever GOMAXPROCS was ambient — keying on the
// procs actually observed keeps every row honest, and the measured rerun
// overwrites any trial taken at the wrong proc count. Run with
// -benchtime of at least 2x when sweeping -cpu so each proc count gets a
// real measurement.
func BenchmarkParallelPipeline(b *testing.B) {
	ctx := context.Background()
	type key struct{ procs, par int }
	type measure struct {
		nsPerOp     int64
		allocsPerOp int64
		bytesPerOp  int64
	}
	measures := make(map[key]measure)
	for _, par := range []int{1, 2, 4} {
		par := par
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Parallelism = par
			b.ReportAllocs()
			// Process-wide allocation deltas around the timed loop; the
			// benchmark loop is the only allocator running, so the deltas
			// are this configuration's allocs/op and bytes/op (same
			// accounting -benchmem reports, but captured per row for the
			// JSON trajectory).
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := core.New(core.WithConfig(cfg)).Run(ctx)
				if err != nil || res.Augmented.Len() == 0 {
					b.Fatalf("pipeline failed: %v", err)
				}
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			measures[key{runtime.GOMAXPROCS(0), par}] = measure{
				nsPerOp:     elapsed.Nanoseconds() / int64(b.N),
				allocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(b.N),
				bytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(b.N),
			}
		})
	}
	if len(measures) == 0 {
		return
	}
	type row struct {
		Procs       int     `json:"procs"`
		Parallelism int     `json:"parallelism"`
		NsPerOp     int64   `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
		BytesPerOp  int64   `json:"bytes_per_op"`
		Speedup     float64 `json:"speedup_vs_serial"`
	}
	keys := make([]key, 0, len(measures))
	for k := range measures {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].procs != keys[j].procs {
			return keys[i].procs < keys[j].procs
		}
		return keys[i].par < keys[j].par
	})
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		m := measures[k]
		r := row{
			Procs: k.procs, Parallelism: k.par,
			NsPerOp: m.nsPerOp, AllocsPerOp: m.allocsPerOp, BytesPerOp: m.bytesPerOp,
		}
		if base := measures[key{k.procs, 1}].nsPerOp; base > 0 && r.NsPerOp > 0 {
			r.Speedup = float64(base) / float64(r.NsPerOp)
		}
		rows = append(rows, r)
	}
	out := struct {
		Rows []row `json:"rows"`
	}{Rows: rows}
	f, err := os.Create("BENCH_parallel.json")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		b.Fatal(err)
	}
}
