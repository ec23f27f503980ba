package main

import (
	"context"
	"fmt"
	"slices"

	"akb/internal/core"
	"akb/internal/obs"
)

// metricDef names one reported number. The names, units and directions
// here are the ones BENCHMARK.json declares; a test holds the two equal.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the system sees, measured in the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"build_alloc_mb", "MB"},
	{"snapshot_write_ms", "ms"},
	{"cold_start_ms", "ms"},
	{"snapshot_bytes_per_fact", "B"},
	{"req_per_s", "1/s"},
	{"req_p50_us", "us"},
	{"req_p95_us", "us"},
}

// perLayer is where the time went, measured in the traced run.
var perLayer = []metricDef{
	// Pipeline stages, from spans opened at each stage start of a
	// parallelism-1 run.
	{"kb.gen_ms", "ms"},
	{"querystream.gen_ms", "ms"},
	{"webgen.gen_ms", "ms"},
	{"extract.kbx_ms", "ms"},
	{"extract.qsx_ms", "ms"},
	{"extract.domx_ms", "ms"},
	{"extract.textx_ms", "ms"},
	{"core.union_ms", "ms"},
	{"fusion.ms", "ms"},
	{"core.augment_ms", "ms"},
	{"extract.lists_ms", "ms"},
	{"temporalx.ms", "ms"},
	{"entitydisc.ms", "ms"},
	{"align.ms", "ms"},
	{"core.stage_sum_share", "share"},
	// Single layers of the build journey, called directly.
	{"htmldom.parse_ms", "ms"},
	{"fusion.build_claims_ms", "ms"},
	{"fusion.fuse_ms", "ms"},
	{"store.result_facts_ms", "ms"},
	{"store.index_ms", "ms"},
	{"store.shard_ms", "ms"},
	{"build_par_s", "s"},
	{"sched.par_speedup", "ratio"},
	{"extract.statements", "count"},
	{"fusion.claims", "count"},
	{"fusion.items", "count"},
	{"store.facts", "count"},
	// Snapshot journey.
	{"store.snap_encode_ms", "ms"},
	{"store.snap_fsync_ms", "ms"},
	{"store.snap_read_ms", "ms"},
	{"store.snap_verify_ms", "ms"},
	{"store.snap_load_ms", "ms"},
	{"serve.first_request_ms", "ms"},
	// Serving journey.
	{"client.rtt_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"store.read_us", "us"},
	{"serve.wrap_us", "us"},
	{"serve.cache_hit_share", "share"},
	{"serve.shed_share", "share"},
	{"serve.resp_bytes", "B"},
	{"datalog.parse_us", "us"},
	{"datalog.plan_us", "us"},
	{"datalog.exec_us", "us"},
	{"datalog.par2_ratio", "ratio"},
	{"datalog.probes_per_row", "count"},
	{"datalog.rows", "count"},
	{"client.p99_us", "us"},
	{"client.open_p50_us", "us"},
	{"client.open_p99_us", "us"},
	{"client.p999_us", "us"},
	{"client.slo_miss_share", "share"},
	{"gen.late_share", "share"},
	{"gen.late_p99_us", "us"},
	{"runtime.alloc_kb_per_op", "kB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.build_overhead_share", "share"},
	{"calib.slowdown", "ratio"},
	{"fail_share", "share"},
}

// stageLayer maps each supervised pipeline stage to the layer metric its
// span is charged to (the layer is the package that does the stage's work).
var stageLayer = map[string]string{
	core.StageWorld:    "kb.gen_ms",
	core.StageDBpedia:  "kb.gen_ms",
	core.StageFreebase: "kb.gen_ms",
	core.StageStream:   "querystream.gen_ms",
	core.StageSites:    "webgen.gen_ms",
	core.StageCorpus:   "webgen.gen_ms",
	core.StageKBX:      "extract.kbx_ms",
	core.StageQSX:      "extract.qsx_ms",
	core.StageDOMX:     "extract.domx_ms",
	core.StageTextX:    "extract.textx_ms",
	core.StageSeeds:    "core.union_ms",
	core.StageUnion:    "core.union_ms",
	core.StageFusion:   "fusion.ms",
	core.StageAugment:  "core.augment_ms",
	core.StageLists:    "extract.lists_ms",
	core.StageTemporal: "temporalx.ms",
	core.StageDiscover: "entitydisc.ms",
	core.StageAlign:    "align.ms",
}

// tracer is the traced run's span recorder: the benchmark's own spans
// around its calls into each layer, kept in memory by an obs.Run. The
// span context stays on the benchmark's side of every call — the program
// is handed context.Background(), as in production — so the trace costs
// the program nothing but the time between its calls.
type tracer struct {
	run *obs.Run
	ctx context.Context
}

// traceLimit bounds the spans kept; a run at full length stays below it.
const traceLimit = 400000

func newTracer() *tracer {
	run := obs.NewRun()
	run.Trace().SetLimit(traceLimit)
	return &tracer{run: run, ctx: obs.Into(context.Background(), run)}
}

// span times fn under a root span.
func (t *tracer) span(name string, fn func()) { under(t.ctx, name, fn) }

// under times fn under a child of ctx's span.
func under(ctx context.Context, name string, fn func()) {
	_, sp := obs.StartSpan(ctx, name)
	fn()
	sp.End()
}

// spanSet is a finished trace indexed for the layer arithmetic.
type spanSet struct {
	byName   map[string][]obs.SpanReport
	children map[int][]obs.SpanReport
}

func (t *tracer) spans() *spanSet {
	s := &spanSet{byName: map[string][]obs.SpanReport{}, children: map[int][]obs.SpanReport{}}
	for _, sp := range t.run.Trace().Snapshot() {
		s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		if sp.Parent != 0 {
			s.children[sp.Parent] = append(s.children[sp.Parent], sp)
		}
	}
	return s
}

// medianOf returns the median duration of the named spans in unit-sized
// steps (1e3 for microseconds, 1e6 for milliseconds): the estimator of the
// layers that are probed thousands of times.
func (s *spanSet) medianOf(name string, unit float64) (float64, error) {
	xs, err := s.durations(name, unit)
	return median(xs), err
}

// fastestOf returns the shortest of the named spans: the estimator of the
// layers that are probed once a round, as of the end-to-end numbers they
// account for (see measure).
func (s *spanSet) fastestOf(name string, unit float64) (float64, error) {
	xs, err := s.durations(name, unit)
	if err != nil {
		return 0, err
	}
	return slices.Min(xs), nil
}

func (s *spanSet) durations(name string, unit float64) ([]float64, error) {
	sps := s.byName[name]
	if len(sps) == 0 {
		return nil, fmt.Errorf("trace has no %q span", name)
	}
	xs := make([]float64, len(sps))
	for i, sp := range sps {
		xs[i] = float64(sp.DurationNS) / unit
	}
	return xs, nil
}
