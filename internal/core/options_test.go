package core

import (
	"reflect"
	"testing"
	"time"

	"akb/internal/fusion"
	"akb/internal/resilience"
)

func TestNewDefaultsMatchDefaultConfig(t *testing.T) {
	p := New()
	want := DefaultConfig()
	got := p.Config()
	// Function fields are not comparable; both are nil here.
	if got.StageHook != nil || want.StageHook != nil {
		t.Fatal("unexpected stage hook on defaults")
	}
	got.StageHook, want.StageHook = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("New() config = %+v, want DefaultConfig", got)
	}
}

func TestOptionsApplyInOrder(t *testing.T) {
	// What has no option of its own is a Config field carried by WithConfig.
	base := DefaultConfig()
	base.Parallelism = 2
	base.Granularity = fusion.ByExtractor
	base.StageTimeout = 3 * time.Second
	base.Retry = resilience.RetryPolicy{MaxAttempts: 2}
	plan := &resilience.FaultPlan{}
	var hooked []string
	p := New(
		WithConfig(base),
		WithSeed(9),
		WithParallelism(4), // later option wins over WithConfig's value
		WithAlignment(),
		WithEntityDiscovery(),
		WithListPages(),
		WithTemporal(),
		WithFaults(plan),
		WithStageHook(func(stage string) { hooked = append(hooked, stage) }),
	)
	cfg := p.Config()
	if cfg.Faults != plan {
		t.Errorf("Faults = %p, want %p", cfg.Faults, plan)
	}
	if cfg.StageHook("x"); !reflect.DeepEqual(hooked, []string{"x"}) {
		t.Errorf("StageHook saw %q, want [x]", hooked)
	}
	if cfg.Seed != 9 || cfg.World.Seed != 9 {
		t.Errorf("WithSeed: Seed=%d World.Seed=%d, want 9/9", cfg.Seed, cfg.World.Seed)
	}
	if cfg.Parallelism != 4 {
		t.Errorf("Parallelism = %d, want 4 (later option wins)", cfg.Parallelism)
	}
	if cfg.Granularity != fusion.ByExtractor {
		t.Errorf("Granularity = %v", cfg.Granularity)
	}
	if !cfg.Align || !cfg.DiscoverEntities || !cfg.ListPages || !cfg.Temporal {
		t.Errorf("feature switches not all on: %+v", cfg)
	}
	if cfg.StageTimeout != 3*time.Second {
		t.Errorf("StageTimeout = %v", cfg.StageTimeout)
	}
	if cfg.Retry.MaxAttempts != 2 {
		t.Errorf("Retry = %+v", cfg.Retry)
	}
}

func TestNewDoesNotShareConfigAcrossPipelines(t *testing.T) {
	a := New(WithSeed(1))
	b := New(WithSeed(2))
	if a.Config().Seed == b.Config().Seed {
		t.Fatal("pipelines share seed state")
	}
}
