// Package resilience supervises pipeline stages. Dong et al. run knowledge
// fusion as MapReduce jobs precisely because extraction at Web scale must
// tolerate partial failure; this package brings the same discipline to the
// in-process Figure-1 pipeline. A Supervisor executes named stages with
// panic recovery, retry with capped exponential backoff and deterministic
// seeded jitter, and an optional fault-injection plan so chaos runs are
// reproducible bit for bit.
//
// Everything stochastic (jitter, injected faults) is derived by hashing
// (seed, stage, attempt), never from a shared RNG, so outcomes do not
// depend on goroutine scheduling or on how many stages ran before.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"akb/internal/obs"
)

// Metric names the supervisor emits into the run's obs registry (all
// no-ops when the context carries no telemetry).
const (
	metricAttempts     = "akb_resilience_stage_attempts_total"
	metricRetries      = "akb_resilience_retries_total"
	metricFaults       = "akb_resilience_faults_injected_total"
	metricPanics       = "akb_resilience_panics_total"
	metricStagesOK     = "akb_resilience_stages_ok_total"
	metricStagesDeg    = "akb_resilience_stages_degraded_total"
	metricStagesFailed = "akb_resilience_stages_failed_total"
	metricStageSeconds = "akb_resilience_stage_seconds"
)

// Health classifies a supervised stage's outcome.
type Health int

const (
	// OK: the stage completed (possibly after retries).
	OK Health = iota
	// Degraded: an optional stage failed soft; the pipeline continued
	// without its output.
	Degraded
	// Failed: a mandatory stage failed hard, or the run's context was
	// cancelled; the pipeline aborted.
	Failed
	// Skipped: the stage was disabled by configuration or not reached.
	Skipped
)

func (h Health) String() string {
	switch h {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	case Skipped:
		return "skipped"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// MarshalJSON serialises Health as its lowercase string form ("ok",
// "degraded", ...), so health reports embedded in RunReport JSON read
// stably instead of as opaque enum integers.
func (h Health) MarshalJSON() ([]byte, error) {
	return []byte(`"` + h.String() + `"`), nil
}

// UnmarshalJSON accepts the string forms produced by MarshalJSON.
func (h *Health) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"ok"`:
		*h = OK
	case `"degraded"`:
		*h = Degraded
	case `"failed"`:
		*h = Failed
	case `"skipped"`:
		*h = Skipped
	default:
		return fmt.Errorf("resilience: unknown health %s", b)
	}
	return nil
}

// StageError is the typed error a supervised stage surfaces: which stage,
// how many attempts were spent, the final cause, and — when the stage
// panicked — the recovered value.
type StageError struct {
	// Stage is the supervised stage name.
	Stage string
	// Attempts is the number of attempts made before giving up.
	Attempts int
	// Err is the final attempt's error.
	Err error
	// PanicValue is the recovered value when the failure was a panic; nil
	// for ordinary errors.
	PanicValue any
}

func (e *StageError) Error() string {
	if e.PanicValue != nil {
		return fmt.Sprintf("stage %s: panic after %d attempt(s): %v", e.Stage, e.Attempts, e.PanicValue)
	}
	return fmt.Sprintf("stage %s: failed after %d attempt(s): %v", e.Stage, e.Attempts, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// transientErr marks an error as transient (worth retrying).
type transientErr struct{ err error }

func (e *transientErr) Error() string   { return e.err.Error() }
func (e *transientErr) Unwrap() error   { return e.err }
func (e *transientErr) Transient() bool { return true }

// MarkTransient wraps err so IsTransient reports true. A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether any error in err's chain declares itself
// transient via a `Transient() bool` method.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// RetryPolicy is a capped exponential backoff schedule: the delay doubles
// after every failed attempt up to maxBackoff, and each delay is scaled by a
// deterministic factor drawn from [1-backoffJitter, 1+backoffJitter]. The
// zero value disables retries (a single attempt, no sleeping).
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget; values below 1 mean one
	// attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; 0 retries
	// without sleeping.
	BaseDelay time.Duration
}

const (
	maxBackoff    = 250 * time.Millisecond
	backoffJitter = 0.5
)

// DefaultRetry is the policy used for retryable pipeline stages: three
// attempts, 25ms base delay doubling to the 250ms cap, 50% jitter.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond}
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the backoff to sleep after the given failed attempt
// (1-based). It is a pure function of (policy, seed, stage, attempt), so a
// fixed seed always yields the same schedule.
func (p RetryPolicy) Delay(seed int64, stage string, attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt && d < float64(maxBackoff); i++ {
		d *= 2
	}
	d = min(d, float64(maxBackoff))
	u := unit(seed, stage, attempt, saltJitter) // [0,1)
	d *= 1 + backoffJitter*(2*u-1)
	return time.Duration(d)
}

// Stage describes one supervised unit of work.
type Stage struct {
	// Name identifies the stage in errors, fault plans and health reports.
	Name string
	// Optional stages fail soft: the supervisor reports Degraded and the
	// caller continues. Mandatory stages report Failed.
	Optional bool
	// Retry is the backoff schedule; the zero value runs one attempt.
	Retry RetryPolicy
	// Run is the stage body. It must be safe to call again after an error
	// (attempts re-run it from scratch). An attempt has no deadline of its
	// own: the caller's context is what cancels it.
	Run func(ctx context.Context) error
}

// Report is the supervised outcome of one stage.
type Report struct {
	Stage    string
	Health   Health
	Attempts int
	// Err is the *StageError when Health is Degraded or Failed, nil on OK.
	Err error
	// Duration is wall-clock time across all attempts, including backoff.
	Duration time.Duration
}

// Supervisor executes stages with recovery, retries and fault injection.
// The zero value is usable; set Seed for reproducible jitter and Faults to
// inject failures.
type Supervisor struct {
	// Seed drives backoff jitter (and, combined with the plan's own seed,
	// nothing else: fault decisions use FaultPlan.Seed).
	Seed int64
	// Faults optionally injects deterministic failures; nil disables
	// injection.
	Faults *FaultPlan
	// Sleep replaces the context-aware sleep between attempts and for
	// injected latency; tests substitute a recorder so schedules are
	// asserted without real waiting. nil uses a timer.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnStage, when set, observes every stage start (before the first
	// attempt). Used for logging and by tests to cancel mid-pipeline.
	OnStage func(stage string)
	// OnRetry, when set, observes each failed attempt that will be
	// retried.
	OnRetry func(stage string, attempt int, err error, backoff time.Duration)
}

// Run executes one stage under supervision and reports its outcome. A
// cancelled context always yields Failed (even for optional stages) with an
// error chain containing the context error.
//
// When the context carries an obs telemetry run, Run opens one root span
// per stage (annotated with health and attempt count), one child span per
// attempt, and emits akb_resilience_* retry/fault/panic/outcome counters
// plus a stage-duration histogram.
func (s *Supervisor) Run(ctx context.Context, st Stage) Report {
	rep := Report{Stage: st.Name, Health: OK}
	start := time.Now()
	reg := obs.Reg(ctx)
	sctx, span := obs.StartSpan(ctx, st.Name)
	if st.Optional {
		span.Annotate("optional", "true")
	}
	finish := func() {
		span.AnnotateInt("attempts", int64(rep.Attempts))
		span.Annotate("health", rep.Health.String())
		span.RecordError(rep.Err)
		span.End()
		reg.Histogram(metricStageSeconds, nil).Observe(rep.Duration.Seconds())
		switch rep.Health {
		case OK:
			reg.Counter(metricStagesOK).Inc()
		case Degraded:
			reg.Counter(metricStagesDeg).Inc()
		default:
			reg.Counter(metricStagesFailed).Inc()
		}
	}
	if s.OnStage != nil {
		s.OnStage(st.Name)
	}
	max := st.Retry.attempts()
	var last error
	var panicValue any
	for attempt := 1; attempt <= max; attempt++ {
		rep.Attempts = attempt
		if err := ctx.Err(); err != nil {
			last = fmt.Errorf("cancelled before attempt %d: %w", attempt, err)
			panicValue = nil
			break
		}
		reg.Counter(metricAttempts).Inc()
		err, pv := s.attempt(sctx, st, attempt)
		if err == nil {
			rep.Duration = time.Since(start)
			finish()
			return rep
		}
		last, panicValue = err, pv
		if pv != nil {
			reg.Counter(metricPanics).Inc()
			break // panics are bugs, not transient conditions: do not retry
		}
		if ctx.Err() != nil {
			break // the run's context died; retrying cannot help
		}
		if !IsTransient(err) || attempt == max {
			break
		}
		backoff := st.Retry.Delay(s.Seed, st.Name, attempt)
		reg.Counter(metricRetries).Inc()
		if s.OnRetry != nil {
			s.OnRetry(st.Name, attempt, err, backoff)
		}
		if backoff > 0 {
			if serr := s.sleep(ctx, backoff); serr != nil {
				last = fmt.Errorf("cancelled during backoff after attempt %d: %w", attempt, serr)
				break
			}
		}
	}
	rep.Duration = time.Since(start)
	rep.Err = &StageError{Stage: st.Name, Attempts: rep.Attempts, Err: last, PanicValue: panicValue}
	if st.Optional && ctx.Err() == nil {
		rep.Health = Degraded
	} else {
		rep.Health = Failed
	}
	finish()
	return rep
}

// attempt runs one attempt: fault injection, panic recovery. It returns the
// attempt error and, for panics, the recovered value. The attempt runs under
// its own child span (nested inside the stage span), so the stage body's
// instrumentation nests under it.
func (s *Supervisor) attempt(ctx context.Context, st Stage, attempt int) (err error, panicValue any) {
	actx, aspan := obs.StartSpan(ctx, st.Name+"/attempt")
	aspan.AnnotateInt("attempt", int64(attempt))
	// Registered before the recover defer so it runs after it (LIFO) and
	// sees the panic-derived err.
	defer func() {
		aspan.RecordError(err)
		aspan.End()
	}()
	if s.Faults != nil {
		latency, ferr := s.Faults.Inject(st.Name, attempt)
		if latency > 0 {
			aspan.Annotate("injected_latency", latency.String())
			if serr := s.sleep(actx, latency); serr != nil {
				return fmt.Errorf("injected latency interrupted: %w", serr), nil
			}
		}
		if ferr != nil {
			obs.Reg(ctx).Counter(metricFaults).Inc()
			aspan.Annotate("injected_fault", "true")
			return ferr, nil
		}
	}
	defer func() {
		if r := recover(); r != nil {
			panicValue = r
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return st.Run(actx), nil
}

func (s *Supervisor) sleep(ctx context.Context, d time.Duration) error {
	if s.Sleep != nil {
		return s.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// --- deterministic hashing ------------------------------------------------

const (
	saltJitter uint64 = 0x9e3779b97f4a7c15
	saltFault  uint64 = 0xbf58476d1ce4e5b9
)

// unit hashes (seed, stage, attempt, salt) to a uniform float64 in [0,1).
func unit(seed int64, stage string, attempt int, salt uint64) float64 {
	h := fnv.New64a()
	h.Write([]byte(stage))
	x := h.Sum64() ^ uint64(seed)*0x94d049bb133111eb ^ uint64(attempt)<<32 ^ salt
	// splitmix64 finalizer for avalanche.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
