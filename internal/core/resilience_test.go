package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"akb/internal/kb"
	"akb/internal/resilience"
	"akb/internal/webgen"
)

// chaosConfig is a scaled-down pipeline configuration for fault tests.
func chaosConfig() Config {
	cfg := DefaultConfig()
	cfg.World = kb.WorldConfig{Seed: 1, EntitiesPerClass: 12, AttrsPerEntity: 10}
	cfg.Stream.TotalRecords = 4000
	cfg.Sites.SitesPerClass = 2
	cfg.Sites.PagesPerSite = 6
	cfg.Corpus.DocsPerClass = 6
	// Retries never sleep in tests.
	cfg.Retry = resilience.RetryPolicy{MaxAttempts: 3}
	return cfg
}

// allOptionalFaults fails every optional stage at the given probability.
func allOptionalFaults(seed int64, prob float64, transient bool) *resilience.FaultPlan {
	plan := &resilience.FaultPlan{Seed: seed, Stages: map[string]resilience.StageFault{}}
	for _, st := range OptionalStageNames() {
		plan.Stages[st] = resilience.StageFault{FailProb: prob, Transient: transient}
	}
	return plan
}

// TestChaosAllOptionalStagesDegrade is the acceptance scenario: every
// optional stage fails permanently at 100% probability, yet the pipeline
// completes on the mandatory spine (substrates → kbx → fusion → augment)
// and reports each optional stage as degraded.
func TestChaosAllOptionalStagesDegrade(t *testing.T) {
	cfg := chaosConfig()
	cfg.ListPages = true
	cfg.Temporal = true
	cfg.DiscoverEntities = true
	cfg.Align = true
	cfg.Faults = allOptionalFaults(99, 1, false)

	res, err := runPipeline(context.Background(), cfg)
	if err != nil {
		t.Fatalf("pipeline failed hard: %v", err)
	}
	deg := res.Health().Degraded()
	want := OptionalStageNames()
	if len(deg) != len(want) {
		t.Fatalf("degraded = %v, want all of %v", deg, want)
	}
	for _, st := range want {
		sh, ok := res.Health().Stage(st)
		if !ok || sh.Health != resilience.Degraded {
			t.Errorf("stage %s not reported degraded: %+v", st, sh)
		}
		if !strings.Contains(sh.Err, "injected fault") {
			t.Errorf("stage %s error %q does not name the injected fault", st, sh.Err)
		}
	}
	for _, st := range MandatoryStageNames() {
		if st == StageFusion || st == StageAugment {
			continue // reported under fusion/FULL and augment stats below
		}
		sh, ok := res.Health().Stage(st)
		if !ok || sh.Health != resilience.OK {
			t.Errorf("mandatory stage %s not healthy: %+v", st, sh)
		}
	}
	// The degraded extractors contributed nothing...
	if res.QSX != nil || res.DOMX != nil || res.TextX != nil || res.Lists != nil || res.Discovered != nil {
		t.Error("degraded stages still left outputs in the result")
	}
	// ...but fusion ran on the surviving KB statements.
	if res.Fused() == nil || len(res.Fused().Decisions) == 0 {
		t.Fatal("fusion produced no decisions from surviving stages")
	}
	if p := res.FusionMetrics.Precision(); p < 0.85 {
		t.Errorf("fusion precision from surviving stages = %.3f, want >= 0.85", p)
	}
	if res.Fused().NumTruths() == 0 {
		t.Error("augmented KB empty")
	}
	// Degraded stages appear in the stage stats with health annotations.
	found := 0
	for _, st := range res.Stats() {
		if st.Health == resilience.Degraded {
			found++
			if st.Precision != -1 || st.Err == "" {
				t.Errorf("degraded stat malformed: %+v", st)
			}
		}
	}
	if found != len(want) {
		t.Errorf("%d degraded stage stats, want %d", found, len(want))
	}
	// Growth still renders from the surviving stages.
	if g := res.Growth(); len(g) == 0 {
		t.Error("Growth() empty on degraded run")
	}
}

func TestChaosSingleStageDegrades(t *testing.T) {
	cfg := chaosConfig()
	cfg.Faults = &resilience.FaultPlan{Seed: 3, Stages: map[string]resilience.StageFault{
		StageTextX: {FailProb: 1},
	}}
	res, err := runPipeline(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if deg := res.Health().Degraded(); len(deg) != 1 || deg[0] != StageTextX {
		t.Fatalf("degraded = %v, want [%s]", deg, StageTextX)
	}
	if res.TextX != nil {
		t.Error("TextX output present despite degradation")
	}
	if res.DOMX == nil || res.QSX == nil {
		t.Error("healthy stages missing outputs")
	}
	if p := res.FusionMetrics.Precision(); p < 0.7 {
		t.Errorf("precision without textx = %.3f", p)
	}
	if res.Health().Healthy() {
		t.Error("Healthy() true on degraded run")
	}
}

func TestChaosTransientFaultsRecoverViaRetry(t *testing.T) {
	cfg := chaosConfig()
	cfg.Retry = resilience.RetryPolicy{MaxAttempts: 8}
	cfg.Faults = &resilience.FaultPlan{Seed: 11, Default: resilience.StageFault{FailProb: 0.5, Transient: true}}
	res, err := runPipeline(context.Background(), cfg)
	if err != nil {
		t.Fatalf("transient chaos at p=0.5 with 8 attempts failed hard: %v", err)
	}
	if !res.Health().Healthy() {
		t.Fatalf("stages did not recover: %v", res.Health())
	}
	retried := false
	for _, sh := range res.Health().Stages {
		if sh.Attempts > 1 {
			retried = true
		}
	}
	if !retried {
		t.Error("no stage needed a retry at p=0.5; fault injection inactive?")
	}
	// Attempts surface on the stage stats too.
	for _, st := range res.Stats() {
		if st.Attempts < 1 {
			t.Errorf("stage %s has no attempt count", st.Stage)
		}
	}
}

func TestChaosDeterministic(t *testing.T) {
	run := func() (*Result, error) {
		cfg := chaosConfig()
		cfg.Retry = resilience.RetryPolicy{MaxAttempts: 2}
		cfg.Faults = &resilience.FaultPlan{Seed: 21, Default: resilience.StageFault{FailProb: 0.4, Transient: true}}
		return runPipeline(context.Background(), cfg)
	}
	a, errA := run()
	b, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("outcome differs: %v vs %v", errA, errB)
	}
	if errA != nil {
		return
	}
	da, db := a.Health().Degraded(), b.Health().Degraded()
	if len(da) != len(db) {
		t.Fatalf("degraded sets differ: %v vs %v", da, db)
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("degraded sets differ: %v vs %v", da, db)
		}
	}
	if a.FusionMetrics != b.FusionMetrics {
		t.Fatalf("metrics differ under identical fault seeds: %+v vs %+v", a.FusionMetrics, b.FusionMetrics)
	}
}

func TestMandatoryStageFaultFailsHard(t *testing.T) {
	cfg := chaosConfig()
	cfg.Faults = &resilience.FaultPlan{Seed: 1, Stages: map[string]resilience.StageFault{
		StageFusion: {FailProb: 1},
	}}
	res, err := runPipeline(context.Background(), cfg)
	if err == nil {
		t.Fatal("mandatory-stage fault did not fail the run")
	}
	if res != nil {
		t.Error("result returned alongside hard failure")
	}
	var se *resilience.StageError
	if !errors.As(err, &se) || se.Stage != StageFusion {
		t.Fatalf("error %v is not a StageError for %s", err, StageFusion)
	}
	if !errors.Is(err, resilience.ErrInjected) {
		t.Errorf("error %v does not wrap ErrInjected", err)
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runPipeline(ctx, chaosConfig())
	if res != nil || err == nil {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestRunContextCancelMidPipeline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen []string
	cfg := chaosConfig()
	cfg.StageHook = func(stage string) {
		seen = append(seen, stage)
		if stage == StageDOMX {
			cancel()
		}
	}
	res, err := runPipeline(ctx, cfg)
	if res != nil || err == nil {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	var se *resilience.StageError
	if !errors.As(err, &se) || se.Stage != StageDOMX {
		t.Fatalf("error %v not attributed to %s", err, StageDOMX)
	}
	if seen[len(seen)-1] != StageDOMX {
		t.Errorf("pipeline kept starting stages after cancellation: %v", seen)
	}
	for _, st := range seen[:len(seen)-1] {
		if st == StageTextX || st == "fusion" {
			t.Errorf("downstream stage %s started before cancellation point", st)
		}
	}
}

func TestQSXStageStatReportsCredibleAttrs(t *testing.T) {
	res, err := runPipeline(context.Background(), chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	var stat *StageStat
	for i := range res.Stats() {
		if res.Stats()[i].Stage == StageQSX {
			stat = &res.Stats()[i]
		}
	}
	if stat == nil {
		t.Fatal("no extract/qsx stage stat")
	}
	if stat.Statements <= 0 {
		t.Errorf("qsx stat reports %d credible attrs, want > 0", stat.Statements)
	}
	if stat.Precision < 0 {
		t.Errorf("qsx precision = %.3f, want a real value", stat.Precision)
	}
	if !strings.Contains(stat.Detail, "credible attrs") {
		t.Errorf("qsx detail %q lacks credible-attribute count", stat.Detail)
	}
}

func TestSplitHostsByClassSkipsUnknownHosts(t *testing.T) {
	classOf := func(host string) string {
		if strings.HasPrefix(host, "film") {
			return "Film"
		}
		return ""
	}
	lists := map[string][]*webgen.ListPage{
		"film-0.example.com":    {{URL: "a"}},
		"mystery-1.example.com": {{URL: "b"}},
		"enigma-2.example.com":  {{URL: "c"}},
	}
	known, unknown := splitHostsByClass(lists, classOf)
	if len(known) != 1 || known["film-0.example.com"] == nil {
		t.Errorf("known = %v", known)
	}
	if len(unknown) != 2 || unknown[0] != "enigma-2.example.com" || unknown[1] != "mystery-1.example.com" {
		t.Errorf("unknown = %v", unknown)
	}
}
