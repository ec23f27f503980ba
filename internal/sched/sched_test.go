package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"akb/internal/obs"
	"akb/internal/resilience"
)

// noop returns a stage body that records its completion order.
type recorder struct {
	mu    sync.Mutex
	order []string
}

func (r *recorder) body(name string, d time.Duration) func(context.Context) error {
	return func(context.Context) error {
		if d > 0 {
			time.Sleep(d)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		r.order = append(r.order, name)
		return nil
	}
}

func names(res *Result) string { return strings.Join(res.Order, ",") }

// diamond builds a classic a -> {b, c} -> d DAG.
func diamond(rec *recorder) []Stage {
	return []Stage{
		{Name: "a", Run: rec.body("a", 0)},
		{Name: "b", After: []string{"a"}, Run: rec.body("b", 0)},
		{Name: "c", After: []string{"a"}, Run: rec.body("c", 0)},
		{Name: "d", After: []string{"b", "c"}, Run: rec.body("d", 0)},
	}
}

func TestTopologicalOrderIsInputOrder(t *testing.T) {
	for _, par := range []int{1, 4} {
		rec := &recorder{}
		res, err := Run(context.Background(), Options{Parallelism: par}, diamond(rec))
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if got := names(res); got != "a,b,c,d" {
			t.Errorf("par=%d: order = %s, want a,b,c,d", par, got)
		}
		for i, rep := range res.Reports {
			if rep.Stage != res.Order[i] || rep.Health != resilience.OK {
				t.Errorf("par=%d: report %d = %+v", par, i, rep)
			}
		}
	}
}

// TestTopologicalOrderStableForForwardEdges checks Kahn tie-breaking: a
// task list not given in dependency order still yields a deterministic
// order with ties broken by input position.
func TestTopologicalOrderStableForForwardEdges(t *testing.T) {
	rec := &recorder{}
	stages := []Stage{
		{Name: "late", After: []string{"base"}, Run: rec.body("late", 0)},
		{Name: "base", Run: rec.body("base", 0)},
		{Name: "solo", Run: rec.body("solo", 0)},
	}
	res, err := Run(context.Background(), Options{}, stages)
	if err != nil {
		t.Fatal(err)
	}
	// base unblocks late (input index 0), which then precedes solo.
	if got := names(res); got != "base,late,solo" {
		t.Errorf("order = %s, want base,late,solo", got)
	}
}

func TestValidationErrors(t *testing.T) {
	ok := func(context.Context) error { return nil }
	cases := []struct {
		name   string
		stages []Stage
		want   string
	}{
		{"unnamed", []Stage{{Run: ok}}, "has no name"},
		{"duplicate", []Stage{{Name: "x", Run: ok}, {Name: "x", Run: ok}}, "duplicate"},
		{"unknown-dep", []Stage{{Name: "x", After: []string{"y"}, Run: ok}}, "unknown stage"},
		{"self-dep", []Stage{{Name: "x", After: []string{"x"}, Run: ok}}, "after itself"},
		{"cycle", []Stage{
			{Name: "x", After: []string{"y"}, Run: ok},
			{Name: "y", After: []string{"x"}, Run: ok},
		}, "cycle"},
	}
	for _, tc := range cases {
		_, err := Run(context.Background(), Options{}, tc.stages)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want contains %q", tc.name, err, tc.want)
		}
	}
}

func TestDependenciesRespectedUnderParallelism(t *testing.T) {
	var maxSeen atomic.Int64
	var base atomic.Bool
	stages := []Stage{
		{Name: "base", Run: func(context.Context) error {
			time.Sleep(5 * time.Millisecond)
			base.Store(true)
			return nil
		}},
	}
	var running atomic.Int64
	for i := 0; i < 8; i++ {
		stages = append(stages, Stage{
			Name:  fmt.Sprintf("leaf-%d", i),
			After: []string{"base"},
			Run: func(context.Context) error {
				if !base.Load() {
					t.Error("leaf started before its dependency finished")
				}
				n := running.Add(1)
				for {
					m := maxSeen.Load()
					if n <= m || maxSeen.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				running.Add(-1)
				return nil
			},
		})
	}
	res, err := Run(context.Background(), Options{Parallelism: 4}, stages)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 9 {
		t.Fatalf("got %d reports", len(res.Reports))
	}
	if m := maxSeen.Load(); m > 4 {
		t.Errorf("observed %d concurrent stages, pool bound is 4", m)
	}
	if m := maxSeen.Load(); m < 2 {
		t.Errorf("observed %d concurrent stages, expected overlap with pool of 4", m)
	}
}

func TestOptionalFailureDegradesAndDependentsRun(t *testing.T) {
	for _, par := range []int{1, 3} {
		rec := &recorder{}
		boom := errors.New("boom")
		stages := []Stage{
			{Name: "a", Run: rec.body("a", 0)},
			{Name: "flaky", After: []string{"a"}, Optional: true, Run: func(context.Context) error { return boom }},
			{Name: "after", After: []string{"flaky"}, Run: rec.body("after", 0)},
		}
		res, err := Run(context.Background(), Options{Parallelism: par}, stages)
		if err != nil {
			t.Fatalf("par=%d: optional failure failed the run: %v", par, err)
		}
		if res.Reports[1].Health != resilience.Degraded {
			t.Errorf("par=%d: flaky health = %v", par, res.Reports[1].Health)
		}
		if res.Reports[2].Health != resilience.OK {
			t.Errorf("par=%d: dependent of degraded stage did not run: %+v", par, res.Reports[2])
		}
	}
}

func TestMandatoryFailureCancelsInFlightAndSkipsRest(t *testing.T) {
	started := make(chan struct{})
	sawCancel := make(chan bool, 1)
	stages := []Stage{
		{Name: "slow", Run: func(ctx context.Context) error {
			close(started)
			select {
			case <-ctx.Done():
				sawCancel <- true
				return ctx.Err()
			case <-time.After(2 * time.Second):
				sawCancel <- false
				return nil
			}
		}},
		{Name: "doomed", Run: func(context.Context) error {
			<-started // fail only once the sibling is in flight
			return errors.New("fatal")
		}},
		{Name: "never", After: []string{"doomed"}, Run: func(context.Context) error {
			t.Error("dependent of failed stage ran")
			return nil
		}},
	}
	res, err := Run(context.Background(), Options{Parallelism: 2}, stages)
	if err == nil {
		t.Fatal("mandatory failure did not fail the run")
	}
	var se *resilience.StageError
	if !errors.As(err, &se) || se.Stage != "doomed" {
		t.Fatalf("error %v not attributed to the failing stage", err)
	}
	if !<-sawCancel {
		t.Error("in-flight stage was not cancelled")
	}
	// The never-started dependent reports Skipped in the fixed order.
	var never resilience.Report
	for i, name := range res.Order {
		if name == "never" {
			never = res.Reports[i]
		}
	}
	if never.Health != resilience.Skipped {
		t.Errorf("unreached stage health = %v, want skipped", never.Health)
	}
}

func TestSerialAbortsImmediatelyOnFailure(t *testing.T) {
	rec := &recorder{}
	stages := []Stage{
		{Name: "a", Run: rec.body("a", 0)},
		{Name: "bad", Run: func(context.Context) error { return errors.New("nope") }},
		{Name: "c", Run: rec.body("c", 0)},
	}
	res, err := Run(context.Background(), Options{Parallelism: 1}, stages)
	if err == nil {
		t.Fatal("want error")
	}
	if len(rec.order) != 1 || rec.order[0] != "a" {
		t.Errorf("ran %v after failure, want only a", rec.order)
	}
	if res.Reports[2].Health != resilience.Skipped {
		t.Errorf("stage after failure = %v, want skipped", res.Reports[2].Health)
	}
}

// TestSupervisorIntegration checks per-stage retries flow through the
// scheduler: a transiently failing body recovers within its attempt
// budget.
func TestSupervisorIntegration(t *testing.T) {
	sup := &resilience.Supervisor{Seed: 7}
	attempts := 0
	stages := []Stage{
		{Name: "flaky", Retry: resilience.RetryPolicy{MaxAttempts: 3},
			Run: func(context.Context) error {
				attempts++
				if attempts < 3 {
					return resilience.MarkTransient(errors.New("flaky attempt"))
				}
				return nil
			}},
	}
	res, err := Run(context.Background(), Options{Parallelism: 2, Supervisor: sup}, stages)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports[0].Attempts != 3 || res.Reports[0].Health != resilience.OK {
		t.Errorf("report = %+v, want OK after 3 attempts", res.Reports[0])
	}
}

// TestSchedTelemetry checks the parent span and the concurrency gauge.
func TestSchedTelemetry(t *testing.T) {
	run := obs.NewRun()
	ctx := obs.Into(context.Background(), run)
	rec := &recorder{}
	if _, err := Run(ctx, Options{Parallelism: 2}, diamond(rec)); err != nil {
		t.Fatal(err)
	}
	spans := run.Trace().Snapshot()
	var parent obs.SpanReport
	for _, s := range spans {
		if s.Name == SpanName {
			parent = s
		}
	}
	if parent.ID == 0 {
		t.Fatal("no sched parent span")
	}
	if parent.Attr("parallelism") != "2" || parent.Attr("stages") != "4" {
		t.Errorf("sched span attrs = %v", parent.Attrs)
	}
	stageSpans := 0
	for _, s := range spans {
		if s.Parent == parent.ID {
			stageSpans++
		}
	}
	if stageSpans != 4 {
		t.Errorf("%d stage spans under sched parent, want 4", stageSpans)
	}
	for _, m := range run.Registry().Snapshot() {
		switch m.Name {
		case MetricRunningStages:
			if m.Value != 0 {
				t.Errorf("running-stages gauge = %v at rest, want 0", m.Value)
			}
		case MetricStagesTotal:
			if m.Value != 4 {
				t.Errorf("stages-total = %v, want 4", m.Value)
			}
		}
	}
}

// TestSerialKeepsStageSpansAsRoots pins the serial-path telemetry
// contract the core pipeline tests rely on: no parent span, one root span
// per stage.
func TestSerialKeepsStageSpansAsRoots(t *testing.T) {
	run := obs.NewRun()
	ctx := obs.Into(context.Background(), run)
	rec := &recorder{}
	if _, err := Run(ctx, Options{Parallelism: 1}, diamond(rec)); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, s := range run.Trace().Snapshot() {
		if s.Name == SpanName {
			t.Error("serial run opened a sched parent span")
		}
		if s.Parent == 0 {
			roots++
		}
	}
	if roots != 4 {
		t.Errorf("%d root spans, want one per stage", roots)
	}
}
