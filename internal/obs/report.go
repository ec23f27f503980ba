package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// RunReportSchemaVersion is the current RunReport JSON layout version,
// stamped into every report written.
const RunReportSchemaVersion = 1

// RunReport is the machine-readable record of one pipeline run: every
// span, every metric, and the caller's health report (serialised as raw
// JSON so obs stays dependency-free). It is the artifact `akb pipeline
// -report` writes, `akb report` renders, and the benchmark run appends to
// the perf trajectory.
type RunReport struct {
	// SchemaVersion identifies the report layout; readers accept
	// 1..RunReportSchemaVersion.
	SchemaVersion int `json:"schema_version,omitempty"`
	// Started is when the telemetry run was created.
	Started time.Time `json:"started"`
	// DurationNS is wall time from run start to export.
	DurationNS int64 `json:"duration_ns"`
	// Spans lists every recorded span in start order; parent id 0 marks a
	// root (stage-level) span.
	Spans []SpanReport `json:"spans"`
	// Metrics is the sorted registry snapshot.
	Metrics []Metric `json:"metrics"`
	// Health is the embedded health report (e.g. core.HealthReport), if
	// the caller supplied one.
	Health json.RawMessage `json:"health,omitempty"`
}

// Report exports the run: a snapshot of all spans and metrics plus the
// marshalled health value (nil health is omitted).
func (r *Run) Report(health any) (*RunReport, error) {
	if r == nil {
		return nil, fmt.Errorf("obs: Report on nil Run")
	}
	rr := &RunReport{
		SchemaVersion: RunReportSchemaVersion,
		Started:       r.started,
		DurationNS:    r.trace.clock().Sub(r.started).Nanoseconds(),
		Spans:         r.trace.Snapshot(),
		Metrics:       r.reg.Snapshot(),
	}
	if health != nil {
		raw, err := json.Marshal(health)
		if err != nil {
			return nil, fmt.Errorf("obs: marshal health: %w", err)
		}
		rr.Health = raw
	}
	return rr, nil
}

// RootSpans returns the report's root spans (parent id 0) in start order —
// one per supervised pipeline stage.
func (rr *RunReport) RootSpans() []SpanReport {
	var out []SpanReport
	for _, s := range rr.Spans {
		if s.Parent == 0 {
			out = append(out, s)
		}
	}
	return out
}

// Children returns the direct children of the span with the given id, in
// start order.
func (rr *RunReport) Children(id int) []SpanReport {
	var out []SpanReport
	for _, s := range rr.Spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// Metric returns the named metric from the snapshot.
func (rr *RunReport) Metric(name string) (Metric, bool) {
	for _, m := range rr.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// WriteJSON serialises the report as stable, indented JSON.
func (rr *RunReport) WriteJSON(w io.Writer) error { return WriteJSON(w, rr) }

// ReadRunReport decodes a report previously written with WriteJSON. A
// report from a future layout, or one with no schema_version at all (no
// writer has produced one since the field exists), is rejected so tooling
// fails loudly instead of misrendering it.
func ReadRunReport(r io.Reader) (*RunReport, error) {
	var rr RunReport
	if err := json.NewDecoder(r).Decode(&rr); err != nil {
		return nil, fmt.Errorf("obs: decode run report: %w", err)
	}
	if rr.SchemaVersion < 1 || rr.SchemaVersion > RunReportSchemaVersion {
		return nil, fmt.Errorf("obs: unsupported run report schema_version %d (this build reads 1..%d)",
			rr.SchemaVersion, RunReportSchemaVersion)
	}
	return &rr, nil
}

// WriteJSON is the shared JSON exporter: two-space indented, key-stable
// (maps marshal with sorted keys), newline-terminated. Every diffable
// artifact the CLI writes (run reports, chaos sweeps, bench records) goes
// through it so outputs stay comparable across PRs.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
