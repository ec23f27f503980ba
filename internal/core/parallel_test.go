package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"akb/internal/extract"
	"akb/internal/fusion"
	"akb/internal/rdf"
	"akb/internal/resilience"
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
	if parallel.Fused().NumTruths() != serial.Fused().NumTruths() {
		t.Errorf("%s: augmented KB differs (%d vs %d triples)", label,
			parallel.Fused().NumTruths(), serial.Fused().NumTruths())
	}
}

// parallelisms are the pool sizes every determinism test sweeps; 1 is
// the serial baseline the others must match byte-for-byte.
var parallelisms = []int{1, 2, 4}

// TestPipelineParallelMatchesSerial is the determinism acceptance test:
// the default pipeline produces a
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
// so every conditional stage and edge is scheduled.
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
// and never depend on execution order.
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
		t.Fatal("chaos plan degraded nothing")
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

// TestFusionSeesExactlyTheSurvivingStatements pins what reaches fusion
// when extraction does not go to plan: a Degraded extractor contributes
// nothing, a retried one contributes once, and fusion resolves
// BuildClaims over exactly the surviving extractors' statements — the
// clean run's statements minus the lost extractors', in the same order —
// at every parallelism.
func TestFusionSeesExactlyTheSurvivingStatements(t *testing.T) {
	run := func(par int, faults *resilience.FaultPlan) *Result {
		cfg := chaosConfig()
		cfg.Parallelism = par
		cfg.Faults = faults
		res, err := runPipeline(context.Background(), cfg)
		if err != nil {
			t.Fatalf("par=%d faults=%v: %v", par, faults, err)
		}
		return res
	}
	permanent := func(stages ...string) *resilience.FaultPlan {
		plan := &resilience.FaultPlan{Seed: 1, Stages: map[string]resilience.StageFault{}}
		for _, st := range stages {
			plan.Stages[st] = resilience.StageFault{FailProb: 1}
		}
		return plan
	}
	// A transient fault that fails the text extractor's first attempt and
	// lets the second through; fault decisions are a pure function of
	// (seed, stage, attempt), so the seed is found, not guessed.
	retried := &resilience.FaultPlan{Stages: map[string]resilience.StageFault{StageTextX: {FailProb: 0.5, Transient: true}}}
	fails := func(attempt int) bool { _, err := retried.Inject(StageTextX, attempt); return err != nil }
	for !fails(1) || fails(2) {
		retried.Seed++
	}

	clean := run(1, nil)
	for _, tc := range []struct {
		name   string
		faults *resilience.FaultPlan
		lost   []string // extractors whose statements must not reach fusion
	}{
		{"textx degraded", permanent(StageTextX), []string{extract.ExtractorText}},
		{"domx degraded", permanent(StageDOMX), []string{extract.ExtractorDOM}},
		{"textx and domx degraded", permanent(StageTextX, StageDOMX), []string{extract.ExtractorText, extract.ExtractorDOM}},
		{"textx retried", retried, nil},
	} {
		var survivors []rdf.Statement
		for _, s := range clean.Statements {
			if !slices.Contains(tc.lost, s.Provenance.Extractor) {
				survivors = append(survivors, s)
			}
		}
		if len(survivors) == 0 || len(survivors) == len(clean.Statements) && tc.lost != nil {
			t.Fatalf("%s: %d of %d statements survive; the case tests nothing", tc.name, len(survivors), len(clean.Statements))
		}
		for _, par := range parallelisms {
			label := fmt.Sprintf("%s par=%d", tc.name, par)
			res := run(par, tc.faults)
			if got := len(res.Health().Degraded()); got != len(tc.lost) {
				t.Errorf("%s: %d stages degraded (%v), want %d", label, got, res.Health().Degraded(), len(tc.lost))
			}
			if sh, _ := res.Health().Stage(StageTextX); tc.lost == nil && sh.Attempts != 2 {
				t.Errorf("%s: text extraction took %d attempts, want a retry", label, sh.Attempts)
			}
			if !reflect.DeepEqual(res.Statements, survivors) {
				t.Errorf("%s: union holds %d statements, want the %d surviving ones in order", label, len(res.Statements), len(survivors))
			}
			claims := fusion.BuildClaims(survivors, DefaultConfig().Granularity)
			want := (&fusion.Full{Forest: res.World.Hier, Workers: par}).Fuse(claims)
			if !reflect.DeepEqual(res.Fused().Decisions, want.Decisions) || !reflect.DeepEqual(res.Fused().SourceQuality, want.SourceQuality) {
				t.Errorf("%s: fusion did not resolve BuildClaims over the surviving statements", label)
			}
			for _, st := range res.Stats() {
				if strings.HasPrefix(st.Stage, "fusion/") && st.Statements != claims.NumClaims() {
					t.Errorf("%s: fusion saw %d claims, the surviving statements hold %d", label, st.Statements, claims.NumClaims())
				}
			}
		}
	}
}
