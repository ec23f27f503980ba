// Package akb_test benchmarks every experiment of the reproduction: one
// benchmark per paper table/figure (E1-E7 in DESIGN.md) plus per-method
// fusion benchmarks. Run with:
//
//	go test -bench=. -benchmem
package akb_test

import (
	"context"
	"fmt"
	"os"
	"testing"

	"akb/internal/align"
	"akb/internal/core"
	"akb/internal/eval"
	"akb/internal/experiments"
	"akb/internal/fusion"
	"akb/internal/obs"
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
		if err != nil || res.Fused().NumTruths() == 0 {
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
		if err != nil || res.Fused().NumTruths() == 0 {
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
