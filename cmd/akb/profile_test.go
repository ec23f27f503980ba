package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"akb/internal/obs"
)

// TestProfileCommand runs akb profile end to end and checks the three
// artifacts exist and that report.json is a RunReport `akb report` reads,
// with a span per pipeline stage per run.
func TestProfileCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("profiled pipeline run in -short")
	}
	dir := filepath.Join(t.TempDir(), "prof")
	out, err := captureStdout(t, func() error { return cmdProfile([]string{"-out", dir, "-runs", "2"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "Per-stage telemetry:") {
		t.Errorf("profile did not print the per-stage table:\n%s", out)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof", "report.json"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	f, err := os.Open(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rr, err := obs.ReadRunReport(f)
	if err != nil {
		t.Fatalf("report.json: %v", err)
	}
	if rr.DurationNS <= 0 {
		t.Errorf("duration_ns = %d, want positive wall time", rr.DurationNS)
	}
	fusion := 0
	for _, span := range stageSpans(rr) {
		if span.DurationNS < 0 {
			t.Errorf("stage %q has duration %d", span.Name, span.DurationNS)
		}
		if span.Name == "fusion" {
			fusion++
		}
	}
	if fusion != 2 {
		t.Errorf("%d fusion stage spans over 2 profiled runs, want 2", fusion)
	}
	if _, err := captureStdout(t, func() error { return cmdReport([]string{filepath.Join(dir, "report.json")}) }); err != nil {
		t.Errorf("akb report on profile's report.json: %v", err)
	}
}

func TestProfileFlagErrors(t *testing.T) {
	if err := cmdProfile([]string{"-runs", "0"}); err == nil {
		t.Error("-runs 0 accepted")
	}
	if err := cmdProfile([]string{"-bogus"}); err == nil {
		t.Error("bogus flag accepted")
	}
}
