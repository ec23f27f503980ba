package resilience

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected fault, so callers
// can distinguish chaos-harness failures from organic ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// StageFault configures injection for one stage.
type StageFault struct {
	// FailProb is the per-attempt probability in [0,1] that the attempt
	// fails with an injected error.
	FailProb float64
	// Transient marks injected errors transient, so retryable stages
	// re-roll the failure on the next attempt; permanent injected errors
	// abort retrying immediately.
	Transient bool
	// Latency is injected before each attempt's body runs.
	Latency time.Duration
}

// FaultPlan is a deterministic chaos schedule: which stages fail, how
// often, and with what latency. All decisions are pure functions of
// (Seed, stage, attempt), so a chaos run is exactly reproducible.
type FaultPlan struct {
	// Seed drives every injection decision.
	Seed int64
	// Default applies to stages without an explicit entry; the zero value
	// injects nothing.
	Default StageFault
	// Stages maps stage names to their fault configuration.
	Stages map[string]StageFault
}

// For returns the fault configuration effective for a stage.
func (p *FaultPlan) For(stage string) StageFault {
	if p == nil {
		return StageFault{}
	}
	if f, ok := p.Stages[stage]; ok {
		return f
	}
	return p.Default
}

// Inject decides what the plan does to the given attempt (1-based): the
// latency to impose and the error to inject (nil for none). Deterministic
// in (Seed, stage, attempt).
func (p *FaultPlan) Inject(stage string, attempt int) (time.Duration, error) {
	f := p.For(stage)
	var err error
	if f.FailProb > 0 && unit(p.Seed, stage, attempt, saltFault) < f.FailProb {
		err = fmt.Errorf("stage %s attempt %d: %w", stage, attempt, ErrInjected)
		if f.Transient {
			err = MarkTransient(err)
		}
	}
	return f.Latency, err
}

// String renders the plan compactly ("seed=7 extract/textx=1.00T+10ms").
func (p *FaultPlan) String() string {
	if p == nil {
		return "<no faults>"
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	render := func(name string, f StageFault) string {
		s := fmt.Sprintf("%s=%.2f", name, f.FailProb)
		if f.Transient {
			s += "T"
		}
		if f.Latency > 0 {
			s += "+" + f.Latency.String()
		}
		return s
	}
	if p.Default != (StageFault{}) {
		parts = append(parts, render("all", p.Default))
	}
	names := make([]string, 0, len(p.Stages))
	for n := range p.Stages {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		parts = append(parts, render(n, p.Stages[n]))
	}
	return strings.Join(parts, " ")
}

// ParseFaultPlan parses a comma-separated fault spec into a plan. Each
// entry is "stage=prob"; the stage name "all" sets the plan default. Probs
// are in [0,1]. Example: "all=0.1,extract/textx=1,discover=0.5".
func ParseFaultPlan(spec string, seed int64) (*FaultPlan, error) {
	plan := &FaultPlan{Seed: seed, Stages: map[string]StageFault{}}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, probStr, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("fault entry %q: want stage=prob", entry)
		}
		name = strings.TrimSpace(name)
		prob, err := strconv.ParseFloat(strings.TrimSpace(probStr), 64)
		if err != nil {
			return nil, fmt.Errorf("fault entry %q: bad probability: %v", entry, err)
		}
		if prob < 0 || prob > 1 {
			return nil, fmt.Errorf("fault entry %q: probability %v outside [0,1]", entry, prob)
		}
		if name == "all" {
			plan.Default = StageFault{FailProb: prob}
		} else {
			plan.Stages[name] = StageFault{FailProb: prob}
		}
	}
	return plan, nil
}

// SetTransient marks every configured fault (including the default)
// transient or permanent; it returns the plan for chaining.
func (p *FaultPlan) SetTransient(transient bool) *FaultPlan {
	p.Default.Transient = transient
	for n, f := range p.Stages {
		f.Transient = transient
		p.Stages[n] = f
	}
	return p
}

// SetLatency injects the given latency on every configured fault entry;
// the default entry only gains latency when it already injects failures
// (otherwise every unlisted stage would slow down too). Returns the plan
// for chaining.
func (p *FaultPlan) SetLatency(d time.Duration) *FaultPlan {
	if p.Default.FailProb > 0 {
		p.Default.Latency = d
	}
	for n, f := range p.Stages {
		f.Latency = d
		p.Stages[n] = f
	}
	return p
}
