package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"akb/internal/fusion"
)

// assertResultsEqual deep-compares the observable output of two pipeline
// runs: statements, fusion decisions, stage stats, health, growth table
// and the augmented store size.
func assertResultsEqual(t *testing.T, serial, parallel *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(parallel.Statements, serial.Statements) {
		t.Errorf("%s: statements differ (%d vs %d)", label, len(parallel.Statements), len(serial.Statements))
	}
	if !reflect.DeepEqual(parallel.Fused().Decisions, serial.Fused().Decisions) {
		t.Errorf("%s: fusion decisions differ", label)
	}
	if parallel.FusionMetrics != serial.FusionMetrics {
		t.Errorf("%s: fusion metrics differ: %+v vs %+v", label, parallel.FusionMetrics, serial.FusionMetrics)
	}
	if !reflect.DeepEqual(parallel.Stats(), serial.Stats()) {
		t.Errorf("%s: stage stats differ:\n par: %+v\n ser: %+v", label, parallel.Stats(), serial.Stats())
	}
	if !reflect.DeepEqual(parallel.Health(), serial.Health()) {
		t.Errorf("%s: health reports differ:\n par: %+v\n ser: %+v", label, parallel.Health(), serial.Health())
	}
	if !reflect.DeepEqual(parallel.Growth(), serial.Growth()) {
		t.Errorf("%s: growth tables differ", label)
	}
	if !reflect.DeepEqual(parallel.SeedSets, serial.SeedSets) {
		t.Errorf("%s: seed sets differ", label)
	}
	if parallel.Augmented.Len() != serial.Augmented.Len() {
		t.Errorf("%s: augmented KB differs (%d vs %d triples)", label,
			parallel.Augmented.Len(), serial.Augmented.Len())
	}
}

// parallelisms are the pool sizes every determinism test sweeps; 1 is
// the serial baseline the others must match byte-for-byte.
var parallelisms = []int{1, 2, 4}

// TestPipelineParallelMatchesSerial is the determinism acceptance test:
// the default pipeline (which streams claims into fusion) produces a
// Result deeply equal to the strictly serial run at every swept
// parallelism, plus GOMAXPROCS. Run under -race in CI, it also proves the
// concurrent stages share no unsynchronised state.
func TestPipelineParallelMatchesSerial(t *testing.T) {
	run := func(par int) *Result {
		cfg := DefaultConfig()
		cfg.Parallelism = par
		res, err := runPipeline(context.Background(), cfg)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return res
	}
	serial := run(1)
	pars := append([]int{}, parallelisms[1:]...)
	if p := runtime.GOMAXPROCS(0); p > 4 {
		pars = append(pars, p)
	}
	for _, par := range pars {
		assertResultsEqual(t, serial, run(par), fmt.Sprintf("default config par=%d", par))
	}
}

// TestPipelineParallelMatchesSerialAllFeatures exercises the full DAG:
// list pages, temporal extraction, entity discovery and alignment all on,
// so every conditional stage and edge is scheduled (and, because
// alignment and discovery rewrite the union, the non-streaming fusion
// path is the one under test).
func TestPipelineParallelMatchesSerialAllFeatures(t *testing.T) {
	run := func(par int) *Result {
		cfg := chaosConfig()
		cfg.ListPages = true
		cfg.Temporal = true
		cfg.DiscoverEntities = true
		cfg.Align = true
		cfg.Parallelism = par
		res, err := runPipeline(context.Background(), cfg)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return res
	}
	serial := run(1)
	for _, par := range parallelisms[1:] {
		parallel := run(par)
		label := fmt.Sprintf("all features par=%d", par)
		assertResultsEqual(t, serial, parallel, label)
		if parallel.Lists == nil || parallel.Discovered == nil || len(parallel.Timelines) == 0 {
			t.Errorf("%s: conditional stage outputs missing", label)
		}
		if !reflect.DeepEqual(parallel.Timelines, serial.Timelines) {
			t.Errorf("%s: timelines differ", label)
		}
		if !reflect.DeepEqual(parallel.AlignReport, serial.AlignReport) {
			t.Errorf("%s: align reports differ", label)
		}
	}
}

// TestPipelineParallelChaosDeterministic checks fault injection composes
// with the scheduler: the same fault seed degrades the same stages at
// every parallelism, because fault decisions hash (seed, stage, attempt)
// and never depend on execution order. Degraded extractors exercise the
// claim stream's discard path.
func TestPipelineParallelChaosDeterministic(t *testing.T) {
	run := func(par int) *Result {
		cfg := chaosConfig()
		cfg.Parallelism = par
		cfg.Faults = allOptionalFaults(99, 1, false)
		res, err := runPipeline(context.Background(), cfg)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return res
	}
	serial := run(1)
	if len(serial.Health().Degraded()) == 0 {
		t.Fatal("chaos plan degraded nothing; the discard path is untested")
	}
	for _, par := range parallelisms[1:] {
		parallel := run(par)
		label := fmt.Sprintf("chaos par=%d", par)
		if !reflect.DeepEqual(parallel.Health().Degraded(), serial.Health().Degraded()) {
			t.Errorf("%s: degraded sets differ: %v vs %v", label, parallel.Health().Degraded(), serial.Health().Degraded())
		}
		assertResultsEqual(t, serial, parallel, label)
	}
}

// TestStreamedFusionMatchesUnionRebuild pins the claim-stream contract at
// the pipeline level: fusing claims rebuilt from the completed statement
// union reproduces exactly the decisions the streaming fusion stage
// produced from incrementally folded batches.
func TestStreamedFusionMatchesUnionRebuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	res, err := runPipeline(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	claims := fusion.BuildClaims(res.Statements, cfg.Granularity)
	method := &fusion.Full{Forest: res.World.Hier, Workers: cfg.Parallelism}
	rebuilt := method.Fuse(claims)
	if !reflect.DeepEqual(rebuilt.Decisions, res.Fused().Decisions) {
		t.Error("decisions from rebuilt union claims differ from streamed fusion")
	}
	if !reflect.DeepEqual(rebuilt.SourceQuality, res.Fused().SourceQuality) {
		t.Error("source quality from rebuilt union claims differs from streamed fusion")
	}
}
