package core

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"akb/internal/obs"
	"akb/internal/resilience"
)

// TestRunContextTelemetry runs the supervised pipeline with telemetry
// attached and checks the tracing contract end to end: every supervised
// stage in the health report produced exactly one root span, root spans
// start in execution order, and every span carries a real duration.
func TestRunContextTelemetry(t *testing.T) {
	run := obs.NewRun()
	ctx := obs.Into(context.Background(), run)
	res, err := runPipeline(ctx, chaosConfig())
	if err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}
	rr, err := run.Report(res.Health())
	if err != nil {
		t.Fatal(err)
	}

	roots := rr.RootSpans()
	if len(roots) != len(res.Health().Stages) {
		t.Fatalf("got %d root spans for %d supervised stages", len(roots), len(res.Health().Stages))
	}
	perStage := make(map[string]int)
	for _, s := range roots {
		perStage[s.Name]++
	}
	for i, sh := range res.Health().Stages {
		if perStage[sh.Stage] != 1 {
			t.Errorf("stage %s has %d root spans, want exactly 1", sh.Stage, perStage[sh.Stage])
		}
		// Root spans appear in execution order, matching the health report.
		if roots[i].Name != sh.Stage {
			t.Errorf("root span %d is %s, want %s", i, roots[i].Name, sh.Stage)
		}
		// The span mirrors the supervisor's verdict.
		if got := roots[i].Attr("health"); got != sh.Health.String() {
			t.Errorf("stage %s span health = %q, want %q", sh.Stage, got, sh.Health)
		}
		if got := roots[i].Attr("attempts"); got != strconv.Itoa(sh.Attempts) {
			t.Errorf("stage %s span attempts = %q, want %d", sh.Stage, got, sh.Attempts)
		}
	}
	for i, s := range rr.Spans {
		if s.DurationNS <= 0 {
			t.Errorf("span %s has non-positive duration", s.Name)
		}
		if i > 0 && s.Start.Before(rr.Spans[i-1].Start) {
			t.Errorf("span %s starts before its predecessor %s", s.Name, rr.Spans[i-1].Name)
		}
	}

	// Each stage ran exactly once, as one child attempt span.
	for _, root := range roots {
		kids := rr.Children(root.ID)
		if len(kids) != 1 || kids[0].Name != root.Name+"/attempt" {
			t.Errorf("stage %s children = %+v, want one attempt span", root.Name, kids)
		}
	}

	// The domain counters flowed through the layers into the registry.
	for _, name := range []string{
		"akb_kbx_statements_total",
		"akb_pipeline_statements_total",
		"akb_fusion_claims_total",
		"akb_fusion_truths_total",
		"akb_resilience_stage_attempts_total",
		"akb_mapreduce_map_tasks_total",
	} {
		m, ok := rr.Metric(name)
		if !ok || m.Value <= 0 {
			t.Errorf("metric %s missing or zero: %+v ok=%v", name, m, ok)
		}
	}
	if m, ok := rr.Metric("akb_resilience_stage_seconds"); !ok || m.Count != int64(len(roots)) {
		t.Errorf("stage seconds histogram = %+v ok=%v, want count %d", m, ok, len(roots))
	}
}

// TestRunContextTelemetryRetries injects a transient fault into one
// optional stage and checks the trace records the recovery: multiple
// attempt children under a single healthy root span, plus retry and fault
// counters.
func TestRunContextTelemetryRetries(t *testing.T) {
	cfg := chaosConfig()
	// Seed 5 at 0.6 deterministically fails attempts 1 and 2 and lets
	// attempt 3 through: the stage recovers inside its 3-attempt budget.
	cfg.Faults = &resilience.FaultPlan{Seed: 5, Stages: map[string]resilience.StageFault{
		StageTextX: {FailProb: 0.6, Transient: true},
	}}
	run := obs.NewRun()
	res, err := runPipeline(obs.Into(context.Background(), run), cfg)
	if err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}
	sh, ok := res.Health().Stage(StageTextX)
	if !ok || sh.Health != resilience.OK || sh.Attempts < 2 {
		t.Fatalf("textx did not recover via retry: %+v", sh)
	}
	rr, err := run.Report(res.Health())
	if err != nil {
		t.Fatal(err)
	}
	var root obs.SpanReport
	for _, s := range rr.RootSpans() {
		if s.Name == StageTextX {
			root = s
		}
	}
	kids := rr.Children(root.ID)
	if len(kids) != sh.Attempts {
		t.Fatalf("got %d attempt spans, want %d", len(kids), sh.Attempts)
	}
	// Failed attempts carry the injected error; the last one is clean.
	for i, k := range kids {
		if k.Attr("attempt") != strconv.Itoa(i+1) {
			t.Errorf("attempt span %d annotated %q", i, k.Attr("attempt"))
		}
		if last := i == len(kids)-1; last == (k.Error != "") {
			t.Errorf("attempt %d error = %q (last=%v)", i+1, k.Error, last)
		}
	}
	if m, ok := rr.Metric("akb_resilience_retries_total"); !ok || m.Value != float64(sh.Attempts-1) {
		t.Errorf("retries counter = %+v ok=%v, want %d", m, ok, sh.Attempts-1)
	}
	if m, ok := rr.Metric("akb_resilience_faults_injected_total"); !ok || m.Value <= 0 {
		t.Errorf("faults counter = %+v ok=%v", m, ok)
	}
}

// TestRunContextWithoutTelemetry pins the no-op path: a bare context runs
// the pipeline with telemetry fully disabled and identical results.
func TestRunContextWithoutTelemetry(t *testing.T) {
	cfg := chaosConfig()
	plain, err := runPipeline(context.Background(), cfg)
	if err != nil {
		t.Fatalf("plain run failed: %v", err)
	}
	run := obs.NewRun()
	traced, err := runPipeline(obs.Into(context.Background(), run), cfg)
	if err != nil {
		t.Fatalf("traced run failed: %v", err)
	}
	if len(plain.Statements) != len(traced.Statements) || plain.Fused().NumTruths() != traced.Fused().NumTruths() {
		t.Fatalf("telemetry changed pipeline output: %d/%d statements, %d/%d triples",
			len(plain.Statements), len(traced.Statements), plain.Fused().NumTruths(), traced.Fused().NumTruths())
	}
}

// TestStatementCountersMatchStageStats: each extractor's statement counter
// is added where its stage counts the statements, not where the union
// makes them, so it equals the stage's StageStat.Statements even when the
// union runs twice — here its first attempt runs to the end and then fails
// transiently.
func TestStatementCountersMatchStageStats(t *testing.T) {
	p := newPipelineRun(allStagesConfig())
	stages := p.stages()
	unions := 0
	for i := range stages {
		if run := stages[i].Run; stages[i].Name == StageUnion {
			stages[i].Run = func(ctx context.Context) error {
				unions++
				if err := run(ctx); err != nil || unions > 1 {
					return err
				}
				return resilience.MarkTransient(errors.New("union lost after it ran"))
			}
		}
	}
	run := obs.NewRun()
	res, err := p.run(obs.Into(context.Background(), run), stages)
	if err != nil {
		t.Fatal(err)
	}
	if unions != 2 {
		t.Fatalf("the union ran %d times, want 2: the case tests nothing", unions)
	}
	rr, err := run.Report(res.Health())
	if err != nil {
		t.Fatal(err)
	}
	for stage, counter := range map[string]string{
		StageKBX:   "akb_kbx_statements_total",
		StageDOMX:  "akb_domx_statements_total",
		StageLists: "akb_domx_list_statements_total",
		StageTextX: "akb_textx_statements_total",
	} {
		var stat *StageStat
		for _, st := range res.Stats() {
			if st.Stage == stage {
				stat = &st
			}
		}
		m, ok := rr.Metric(counter)
		if stat == nil || !ok || stat.Statements == 0 {
			t.Fatalf("%s: stat %+v, counter %s %+v (found %v)", stage, stat, counter, m, ok)
		}
		if m.Value != float64(stat.Statements) {
			t.Errorf("%s = %v, the %s stage counts %d statements", counter, m.Value, stage, stat.Statements)
		}
	}
}
