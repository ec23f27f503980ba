package obs

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun replays a fixed miniature pipeline on the fake clock: two
// stages (one with a child attempt and an error), a counter, a gauge and
// a histogram. Every timestamp comes from the deterministic clock, so the
// exported JSON is byte-stable.
func goldenRun() *Run {
	run := NewRunAt(newFakeClock().Now)
	ctx := Into(context.Background(), run)

	stageCtx, stage := StartSpan(ctx, "extract/kbx")
	_, attempt := StartSpan(stageCtx, "extract/kbx/attempt")
	attempt.AnnotateInt("attempt", 1)
	attempt.AnnotateInt("statements", 42)
	attempt.End()
	stage.AnnotateInt("attempts", 1)
	stage.Annotate("health", "ok")
	stage.End()

	_, failed := StartSpan(ctx, "fusion")
	failed.RecordError(errors.New("injected fault"))
	failed.End()

	reg := Reg(ctx)
	reg.Counter("akb_kbx_statements_total").Add(42)
	reg.Gauge("akb_fusion_sources").Set(7)
	h := reg.Histogram("akb_resilience_stage_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3)
	return run
}

type goldenHealth struct {
	Stages []string `json:"stages"`
}

// TestRunReportGolden pins the full RunReport JSON shape — span fields,
// metric encoding, embedded health — against a checked-in golden file.
// Run with -update to regenerate after an intentional format change.
func TestRunReportGolden(t *testing.T) {
	rr, err := goldenRun().Report(goldenHealth{Stages: []string{"extract/kbx", "fusion"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "runreport.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with go test ./internal/obs -run Golden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("RunReport JSON drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRunReportRoundTrip checks WriteJSON/ReadRunReport symmetry and the
// report accessors used by the akb report renderer.
func TestRunReportRoundTrip(t *testing.T) {
	rr, err := goldenRun().Report(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRunReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	roots := back.RootSpans()
	if len(roots) != 2 || roots[0].Name != "extract/kbx" || roots[1].Name != "fusion" {
		t.Fatalf("roots = %+v", roots)
	}
	kids := back.Children(roots[0].ID)
	if len(kids) != 1 || kids[0].Attr("statements") != "42" {
		t.Fatalf("children = %+v", kids)
	}
	if len(back.Children(roots[1].ID)) != 0 {
		t.Fatal("fusion span has unexpected children")
	}
	m, ok := back.Metric("akb_kbx_statements_total")
	if !ok || m.Value != 42 || m.Kind != "counter" {
		t.Fatalf("metric = %+v ok=%v", m, ok)
	}
	hist, ok := back.Metric("akb_resilience_stage_seconds")
	if !ok || hist.Count != 3 || hist.Overflow != 1 {
		t.Fatalf("histogram = %+v ok=%v", hist, ok)
	}
	if roots[1].Error != "injected fault" {
		t.Fatalf("error = %q", roots[1].Error)
	}
	if back.DurationNS <= 0 {
		t.Fatal("non-positive run duration")
	}
	if back.SchemaVersion != RunReportSchemaVersion {
		t.Fatalf("schema version = %d, want %d", back.SchemaVersion, RunReportSchemaVersion)
	}
}

// TestReadRunReportVersions pins the compatibility contract: the current
// version reads; a report without a schema_version field and one from a
// future version are rejected with the same named error.
func TestReadRunReportVersions(t *testing.T) {
	current := `{"schema_version":1,"started":"2025-01-01T00:00:00Z","duration_ns":5,"spans":[],"metrics":[]}`
	if _, err := ReadRunReport(strings.NewReader(current)); err != nil {
		t.Fatalf("current report rejected: %v", err)
	}
	for name, body := range map[string]string{
		"unversioned": `{"started":"2025-01-01T00:00:00Z","duration_ns":5,"spans":[],"metrics":[]}`,
		"future":      `{"schema_version":99,"started":"2025-01-01T00:00:00Z"}`,
	} {
		if _, err := ReadRunReport(strings.NewReader(body)); err == nil ||
			!strings.Contains(err.Error(), "unsupported run report schema_version") {
			t.Errorf("%s report err = %v", name, err)
		}
	}
}

// TestReportOnNilRun checks the one obs entry point that is not nil-safe
// by design: exporting a report requires a run.
func TestReportOnNilRun(t *testing.T) {
	var run *Run
	if _, err := run.Report(nil); err == nil {
		t.Fatal("Report on nil run did not error")
	}
	if run.Registry() != nil || run.Trace() != nil {
		t.Fatal("nil run handed out non-nil components")
	}
}
