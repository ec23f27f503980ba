// Package sched schedules named pipeline stages as a dependency DAG on a
// bounded worker pool. Dong et al. (VLDB'14) scale knowledge fusion by
// structuring it as independent MapReduce jobs; the Figure-1 pipeline has
// the same shape one level up — a shallow DAG of supervised stages where
// most edges are absent — so independent stages (the five substrate
// generators, KB extraction vs. query-stream extraction, the seeded
// extractors) can run concurrently instead of serially.
//
// Semantics are deliberately identical to a hand-written serial pipeline:
//
//   - Output order is fixed: reports are assembled in a stable topological
//     order (ties broken by input position), never in completion order, so
//     callers emit byte-identical results at any parallelism.
//   - A stage becomes ready when every stage it is After has finished OK
//     or Degraded; optional stages therefore degrade softly without
//     stalling their dependents.
//   - A Failed stage (a mandatory failure, or any stage killed by context
//     cancellation) cancels in-flight work, stops dispatching, and fails
//     the run with that stage's error.
//   - Each stage runs under the caller's resilience.Supervisor, so panic
//     recovery, retries and deterministic fault injection apply per stage
//     exactly as in the serial pipeline.
//
// With Parallelism <= 1 the scheduler runs stages on the caller's
// goroutine in topological order: no scheduler span, no goroutines, hooks
// in stage order. With Parallelism > 1
// it opens one parent span ("sched") per run, nests every stage span under
// it, and tracks the in-flight stage count in the
// akb_sched_running_stages gauge.
package sched

import (
	"context"
	"fmt"

	"akb/internal/obs"
	"akb/internal/resilience"
)

// Metric and span names the scheduler emits.
const (
	// MetricRunningStages is a gauge of stages currently executing.
	MetricRunningStages = "akb_sched_running_stages"
	// MetricStagesTotal counts stages the scheduler dispatched.
	MetricStagesTotal = "akb_sched_stages_total"
	// SpanName is the parent span opened per concurrent scheduler run.
	SpanName = "sched"
)

// Stage is one schedulable unit: a supervised stage plus its dependency
// edges.
type Stage struct {
	// Name identifies the stage; it is also the resilience supervisor's
	// stage name and therefore the FaultPlan key.
	Name string
	// After lists stages that must finish (OK or Degraded) before this
	// stage may start. Every entry must name another stage passed to the
	// same Run call.
	After []string
	// Optional stages fail soft: the run continues and the stage reports
	// Degraded. Mandatory stages fail the whole run.
	Optional bool
	// Retry is the per-stage backoff schedule (zero value: one attempt).
	Retry resilience.RetryPolicy
	// Run is the stage body. Bodies of stages with no path between them
	// may execute concurrently and must not share mutable state.
	Run func(ctx context.Context) error
}

// Options configure one scheduler run.
type Options struct {
	// Parallelism bounds how many stages run concurrently. Values <= 1
	// run strictly serially on the caller's goroutine.
	Parallelism int
	// Supervisor executes each stage; nil uses a zero supervisor.
	Supervisor *resilience.Supervisor
}

// Result is the outcome of a scheduler run.
type Result struct {
	// Order is the fixed topological order of stage names; input order
	// breaks ties, so a task list given in a valid topological order is
	// reported in exactly that order.
	Order []string
	// Reports holds one supervised report per stage, aligned with Order.
	// On a failed run, stages that never started carry Health Skipped.
	Reports []resilience.Report
}

// graph is the validated dependency structure over a stage list.
type graph struct {
	// topo maps topological position -> input index.
	topo []int
	// pos maps input index -> topological position.
	pos []int
	// dependents[i] lists input indices of stages that are After stage i.
	dependents [][]int
	// indeg[i] is the number of stages that stage i is After.
	indeg []int
}

// build validates names and edges and computes the stable topological
// order (Kahn's algorithm, smallest input index first).
func build(stages []Stage) (*graph, error) {
	n := len(stages)
	byName := make(map[string]int, n)
	for i, st := range stages {
		if st.Name == "" {
			return nil, fmt.Errorf("sched: stage %d has no name", i)
		}
		if _, dup := byName[st.Name]; dup {
			return nil, fmt.Errorf("sched: duplicate stage %q", st.Name)
		}
		byName[st.Name] = i
	}
	g := &graph{
		topo:       make([]int, 0, n),
		pos:        make([]int, n),
		dependents: make([][]int, n),
		indeg:      make([]int, n),
	}
	for i, st := range stages {
		for _, dep := range st.After {
			j, ok := byName[dep]
			if !ok {
				return nil, fmt.Errorf("sched: stage %q is after unknown stage %q", st.Name, dep)
			}
			if j == i {
				return nil, fmt.Errorf("sched: stage %q is after itself", st.Name)
			}
			g.dependents[j] = append(g.dependents[j], i)
			g.indeg[i]++
		}
	}
	indeg := make([]int, n)
	copy(indeg, g.indeg)
	var ready []int // ascending input indices with indeg 0
	for i := n - 1; i >= 0; i-- {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	// ready is kept sorted descending so the smallest index pops last.
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		g.pos[i] = len(g.topo)
		g.topo = append(g.topo, i)
		for _, j := range g.dependents[i] {
			indeg[j]--
			if indeg[j] == 0 {
				ready = insertDesc(ready, j)
			}
		}
	}
	if len(g.topo) != n {
		return nil, fmt.Errorf("sched: dependency cycle among stages")
	}
	return g, nil
}

// insertDesc inserts v into a descending-sorted slice, keeping it sorted.
func insertDesc(s []int, v int) []int {
	s = append(s, v)
	for i := len(s) - 1; i > 0 && s[i] > s[i-1]; i-- {
		s[i], s[i-1] = s[i-1], s[i]
	}
	return s
}

// supervised converts a sched.Stage into the supervisor's stage form.
func supervised(st Stage) resilience.Stage {
	return resilience.Stage{
		Name:     st.Name,
		Optional: st.Optional,
		Retry:    st.Retry,
		Run:      st.Run,
	}
}

// Run executes the stage DAG and returns reports in the fixed topological
// order. It returns a non-nil Result even on failure (unstarted stages are
// marked Skipped) together with the failing stage's error.
func Run(ctx context.Context, opts Options, stages []Stage) (*Result, error) {
	g, err := build(stages)
	if err != nil {
		return nil, err
	}
	sup := opts.Supervisor
	if sup == nil {
		sup = &resilience.Supervisor{}
	}
	if opts.Parallelism <= 1 {
		return runSerial(ctx, sup, stages, g)
	}
	return runParallel(ctx, sup, opts.Parallelism, stages, g)
}

// runSerial executes stages one at a time in topological order on the
// caller's goroutine: no extra spans, no goroutines, immediate abort on
// failure.
func runSerial(ctx context.Context, sup *resilience.Supervisor, stages []Stage, g *graph) (*Result, error) {
	res := newResult(stages, g)
	reg := obs.Reg(ctx)
	gauge := reg.Gauge(MetricRunningStages)
	for pos, i := range g.topo {
		reg.Counter(MetricStagesTotal).Inc()
		gauge.Set(1)
		rep := sup.Run(ctx, supervised(stages[i]))
		gauge.Set(0)
		res.Reports[pos] = rep
		if rep.Health == resilience.Failed {
			return res, rep.Err
		}
	}
	return res, nil
}

// runParallel executes ready stages on a bounded pool. Dispatch order is
// topological among ready stages, so with a pool of one it degenerates to
// the serial order; reports are always assembled in topological order
// regardless of completion interleaving.
func runParallel(ctx context.Context, sup *resilience.Supervisor, parallelism int, stages []Stage, g *graph) (*Result, error) {
	res := newResult(stages, g)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	reg := obs.Reg(ctx)
	sctx, span := obs.StartSpan(cctx, SpanName)
	span.AnnotateInt("stages", int64(len(stages)))
	span.AnnotateInt("parallelism", int64(parallelism))
	defer span.End()
	gauge := reg.Gauge(MetricRunningStages)

	type done struct {
		idx int
		rep resilience.Report
	}
	doneCh := make(chan done)
	indeg := make([]int, len(stages))
	copy(indeg, g.indeg)
	var ready []int // input indices, descending topo position (pop from end)
	for i := range stages {
		if indeg[i] == 0 {
			ready = insertReady(ready, i, g)
		}
	}
	running := 0
	// failure is the first non-cancellation failure observed; once set,
	// dispatch stops and in-flight stages drain under the cancelled
	// context.
	var failure error
	for len(ready) > 0 || running > 0 {
		for failure == nil && len(ready) > 0 && running < parallelism {
			i := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			running++
			reg.Counter(MetricStagesTotal).Inc()
			gauge.Add(1)
			go func(i int) {
				rep := sup.Run(sctx, supervised(stages[i]))
				doneCh <- done{idx: i, rep: rep}
			}(i)
		}
		if running == 0 {
			break // failure observed and nothing left in flight
		}
		d := <-doneCh
		running--
		gauge.Add(-1)
		res.Reports[g.pos[d.idx]] = d.rep
		if d.rep.Health == resilience.Failed {
			if failure == nil {
				failure = d.rep.Err
				cancel()
			}
			ready = nil
			continue
		}
		for _, j := range g.dependents[d.idx] {
			indeg[j]--
			if indeg[j] == 0 && failure == nil {
				ready = insertReady(ready, j, g)
			}
		}
	}
	if failure != nil {
		return res, failure
	}
	return res, nil
}

// insertReady inserts input index v keeping the slice sorted by
// descending topological position (the next stage to dispatch at the end).
func insertReady(s []int, v int, g *graph) []int {
	s = append(s, v)
	for i := len(s) - 1; i > 0 && g.pos[s[i]] > g.pos[s[i-1]]; i-- {
		s[i], s[i-1] = s[i-1], s[i]
	}
	return s
}

// newResult pre-fills a Result with Skipped reports in topological order,
// so stages that never run still appear in the output.
func newResult(stages []Stage, g *graph) *Result {
	res := &Result{
		Order:   make([]string, len(stages)),
		Reports: make([]resilience.Report, len(stages)),
	}
	for pos, i := range g.topo {
		res.Order[pos] = stages[i].Name
		res.Reports[pos] = resilience.Report{Stage: stages[i].Name, Health: resilience.Skipped}
	}
	return res
}
