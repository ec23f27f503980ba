package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// recordingSleep captures requested sleeps without waiting.
func recordingSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestRunSucceedsFirstAttempt(t *testing.T) {
	sup := &Supervisor{Seed: 1}
	calls := 0
	rep := sup.Run(context.Background(), Stage{
		Name:  "ok",
		Retry: DefaultRetry(),
		Run:   func(context.Context) error { calls++; return nil },
	})
	if rep.Health != OK || rep.Attempts != 1 || rep.Err != nil || calls != 1 {
		t.Fatalf("rep=%+v calls=%d", rep, calls)
	}
}

func TestRetryRecoversFromTransientErrors(t *testing.T) {
	var delays []time.Duration
	sup := &Supervisor{Seed: 1}
	sup.Sleep = recordingSleep(&delays)
	calls := 0
	rep := sup.Run(context.Background(), Stage{
		Name:  "flaky",
		Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond},
		Run: func(context.Context) error {
			calls++
			if calls < 3 {
				return MarkTransient(errors.New("blip"))
			}
			return nil
		},
	})
	if rep.Health != OK || rep.Attempts != 3 || calls != 3 {
		t.Fatalf("rep=%+v calls=%d", rep, calls)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2: %v", len(delays), delays)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	sup := &Supervisor{Seed: 1}
	calls := 0
	boom := errors.New("permanent")
	rep := sup.Run(context.Background(), Stage{
		Name:  "perm",
		Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
		Run:   func(context.Context) error { calls++; return boom },
	})
	if rep.Health != Failed || calls != 1 || rep.Attempts != 1 {
		t.Fatalf("rep=%+v calls=%d", rep, calls)
	}
	var se *StageError
	if !errors.As(rep.Err, &se) || se.Stage != "perm" || !errors.Is(rep.Err, boom) {
		t.Fatalf("want StageError wrapping cause, got %v", rep.Err)
	}
}

func TestPanicBecomesStageError(t *testing.T) {
	sup := &Supervisor{Seed: 1}
	calls := 0
	rep := sup.Run(context.Background(), Stage{
		Name:     "bomb",
		Optional: true,
		Retry:    RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Run:      func(context.Context) error { calls++; panic("kaboom") },
	})
	if rep.Health != Degraded {
		t.Fatalf("health = %v, want Degraded", rep.Health)
	}
	if calls != 1 {
		t.Fatalf("panicking stage retried %d times; panics must not retry", calls)
	}
	var se *StageError
	if !errors.As(rep.Err, &se) {
		t.Fatalf("want StageError, got %T", rep.Err)
	}
	if se.PanicValue != "kaboom" {
		t.Fatalf("PanicValue = %v", se.PanicValue)
	}
}

func TestBackoffScheduleDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond}
	var a, b []time.Duration
	for attempt := 1; attempt <= 7; attempt++ {
		a = append(a, p.Delay(42, "stage", attempt))
		b = append(b, p.Delay(42, "stage", attempt))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The doubling curve capped at 250ms, each delay scaled by its hashed
	// factor in [0.5, 1.5].
	base := []time.Duration{10, 20, 40, 80, 160, 250, 250}
	for i, d := range a {
		f := 1 + 0.5*(2*unit(42, "stage", i+1, saltJitter)-1)
		if want := time.Duration(float64(base[i]*time.Millisecond) * f); d != want {
			t.Errorf("attempt %d delay %v, want %v", i+1, d, want)
		}
	}
	// A different seed perturbs at least one delay.
	diff := false
	for attempt := 1; attempt <= 7; attempt++ {
		if p.Delay(43, "stage", attempt) != a[attempt-1] {
			diff = true
		}
	}
	if !diff {
		t.Error("seed change did not perturb the jittered schedule")
	}
}

func TestCancelledContextFailsEvenOptionalStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sup := &Supervisor{Seed: 1}
	rep := sup.Run(ctx, Stage{
		Name:     "opt",
		Optional: true,
		Run:      func(context.Context) error { t.Fatal("body must not run"); return nil },
	})
	if rep.Health != Failed {
		t.Fatalf("health = %v, want Failed on cancelled context", rep.Health)
	}
	if !errors.Is(rep.Err, context.Canceled) {
		t.Fatalf("err %v does not wrap context.Canceled", rep.Err)
	}
}

func TestCancellationDuringBackoffStopsRetrying(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sup := &Supervisor{Seed: 1}
	sup.Sleep = func(context.Context, time.Duration) error {
		cancel()
		return ctx.Err()
	}
	calls := 0
	rep := sup.Run(ctx, Stage{
		Name:  "s",
		Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
		Run:   func(context.Context) error { calls++; return MarkTransient(errors.New("blip")) },
	})
	if calls != 1 {
		t.Fatalf("ran %d attempts after cancellation, want 1", calls)
	}
	if rep.Health != Failed || !errors.Is(rep.Err, context.Canceled) {
		t.Fatalf("rep=%+v", rep)
	}
}

func TestOnStageAndOnRetryHooksFire(t *testing.T) {
	var stages []string
	var retries []int
	var delays []time.Duration
	sup := &Supervisor{Seed: 1}
	sup.Sleep = recordingSleep(&delays)
	sup.OnStage = func(s string) { stages = append(stages, s) }
	sup.OnRetry = func(_ string, attempt int, _ error, _ time.Duration) { retries = append(retries, attempt) }
	calls := 0
	sup.Run(context.Background(), Stage{
		Name:  "hooked",
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Run: func(context.Context) error {
			calls++
			if calls == 1 {
				return MarkTransient(errors.New("blip"))
			}
			return nil
		},
	})
	if len(stages) != 1 || stages[0] != "hooked" {
		t.Errorf("OnStage saw %v", stages)
	}
	if len(retries) != 1 || retries[0] != 1 {
		t.Errorf("OnRetry saw %v", retries)
	}
}

func TestIsTransientWalksChain(t *testing.T) {
	err := fmt.Errorf("outer: %w", MarkTransient(errors.New("inner")))
	if !IsTransient(err) {
		t.Error("wrapped transient not detected")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error reported transient")
	}
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) != nil")
	}
}
