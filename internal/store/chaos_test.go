package store

import (
	"errors"
	"testing"
	"time"

	"akb/internal/resilience"
)

func TestChaosQuerierInjectsPanics(t *testing.T) {
	base := New(testFacts())
	ctl := NewChaosController(&resilience.FaultPlan{
		Seed:    7,
		Default: resilience.StageFault{FailProb: 1, Transient: true},
	})
	q := ctl.Wrap(base)

	recovered := func(fn func()) (rec any) {
		defer func() { rec = recover() }()
		fn()
		return nil
	}
	rec := recovered(func() { Lookup(q, Pattern{Class: "Film"}) })
	if rec == nil {
		t.Fatal("FailProb=1 did not panic")
	}
	err, ok := rec.(error)
	if !ok || !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("transient fault panicked with %v, want ErrInjected error", rec)
	}
	if rec := recovered(func() { Lookup(q, Pattern{Entity: "Casablanca"}) }); rec == nil {
		t.Fatal("Entity not faulted")
	}
	if rec := recovered(func() { Lookup(q, Pattern{Entity: "Casablanca", Attr: "language"}) }); rec == nil {
		t.Fatal("Triples not faulted")
	}
	if ctl.Panics() != 3 || ctl.Calls() != 3 {
		t.Errorf("panics=%d calls=%d, want 3/3", ctl.Panics(), ctl.Calls())
	}

	// Permanent faults panic with a string, not an error value.
	ctl2 := NewChaosController(&resilience.FaultPlan{Seed: 7, Default: resilience.StageFault{FailProb: 1}})
	rec = recovered(func() { Lookup(ctl2.Wrap(base), Pattern{Class: "Film"}) })
	if _, isErr := rec.(error); rec == nil || isErr {
		t.Fatalf("permanent fault panicked with %v, want plain string", rec)
	}
}

func TestChaosQuerierDisableRestoresCleanReads(t *testing.T) {
	base := New(testFacts())
	ctl := NewChaosController(&resilience.FaultPlan{
		Seed:    1,
		Default: resilience.StageFault{FailProb: 1, Latency: time.Millisecond},
	})
	q := ctl.Wrap(base)
	ctl.SetEnabled(false)

	// With injection off the wrapper is transparent: same answers, no
	// panics, no latency bookkeeping.
	got := Lookup(q, Pattern{Class: "Film"})
	want := base.Lookup(Pattern{Class: "Film"})
	if len(got) != len(want) {
		t.Fatalf("disabled chaos changed results: %d vs %d", len(got), len(want))
	}
	if ctl.Calls() != 0 || ctl.Panics() != 0 || ctl.Slowed() != 0 {
		t.Errorf("disabled chaos still counted: calls=%d panics=%d slowed=%d", ctl.Calls(), ctl.Panics(), ctl.Slowed())
	}

	// Summary methods are never faulted even when enabled — they back
	// the health endpoints.
	ctl.SetEnabled(true)
	if q.Len() != base.Len() || q.EntityCount() != base.EntityCount() || len(q.Classes()) != len(base.Classes()) {
		t.Error("summary methods disagree with base store")
	}
	if ctl.Calls() != 0 {
		t.Errorf("summary methods consumed fault budget: calls=%d", ctl.Calls())
	}
}

func TestChaosQuerierLatency(t *testing.T) {
	base := New(testFacts())
	ctl := NewChaosController(&resilience.FaultPlan{
		Seed:    1,
		Default: resilience.StageFault{Latency: 5 * time.Millisecond},
	})
	q := ctl.Wrap(base)
	start := time.Now()
	Lookup(q, Pattern{Class: "Film"})
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("latency fault not applied: took %v", d)
	}
	if ctl.Slowed() != 1 {
		t.Errorf("slowed = %d, want 1", ctl.Slowed())
	}
}

// TestChaosStageFollowsPatternShape pins which plan stage a read consults:
// an entity alone is "store/entity", an (entity, attr) pair "store/triples",
// anything else "store/lookup" — the stages `akb serve -chaos-*` and the
// server's model test plan against.
func TestChaosStageFollowsPatternShape(t *testing.T) {
	for p, want := range map[Pattern]string{
		{Entity: "e"}:                          ChaosStageEntity,
		{Entity: "e", Attr: "a"}:               ChaosStageTriples,
		{Entity: "e", Attr: "a", Value: "v"}:   ChaosStageLookup,
		{Entity: "e", Class: "c"}:              ChaosStageLookup,
		{Attr: "a"}:                            ChaosStageLookup,
		{Class: "c", Value: "v", Exact: true}:  ChaosStageLookup,
		{}:                                     ChaosStageLookup,
		{Entity: "e", Attr: "a", Exact: true}:  ChaosStageTriples,
		{Entity: "e", Value: "v", Exact: true}: ChaosStageLookup,
	} {
		if got := chaosStage(p); got != want {
			t.Errorf("chaosStage(%+v) = %q, want %q", p, got, want)
		}
	}
	// Only the faulted stage's reads fail; CountEstimate never does.
	ctl := NewChaosController(&resilience.FaultPlan{
		Seed:   3,
		Stages: map[string]resilience.StageFault{ChaosStageTriples: {FailProb: 1}},
	})
	q := ctl.Wrap(New(testFacts()))
	if got := Lookup(q, Pattern{Entity: "Casablanca"}); len(got) != 3 {
		t.Errorf("unfaulted entity read = %+v", got)
	}
	if q.CountEstimate(Pattern{Entity: "Casablanca", Attr: "language"}) != 2 {
		t.Error("CountEstimate through the wrapper disagrees with the store")
	}
	defer func() {
		if recover() == nil {
			t.Error("the faulted (entity, attr) read did not panic")
		}
	}()
	Lookup(q, Pattern{Entity: "Casablanca", Attr: "language"})
}
