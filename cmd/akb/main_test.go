package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"akb/internal/store"
)

func TestFastCommandsRun(t *testing.T) {
	// The heavyweight experiment commands are exercised by the experiments
	// package; here we smoke-test the CLI plumbing with the fast ones.
	for _, c := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"table1", cmdTable1, nil},
		{"table2", cmdTable2, nil},
		{"table3", cmdTable3, []string{"-scale", "2000"}},
	} {
		if err := c.run(c.args); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestCommandRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range commands() {
		if c.name == "" || c.brief == "" || c.run == nil {
			t.Errorf("incomplete command %+v", c)
		}
		if seen[c.name] {
			t.Errorf("duplicate command %q", c.name)
		}
		seen[c.name] = true
	}
	for _, want := range []string{"table1", "table2", "table3", "pipeline", "fusion", "ablation", "export", "chaos", "all"} {
		if !seen[want] {
			t.Errorf("command %q missing", want)
		}
	}
}

func TestExportWritesNTriples(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short")
	}
	path := filepath.Join(t.TempDir(), "kb.nt")
	if err := cmdExport([]string{"-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty export")
	}
}

// testSnapshotFile writes a small valid snapshot for CLI tests.
func testSnapshotFile(t *testing.T) string {
	t.Helper()
	st := store.New([]store.Fact{
		{Entity: "Casablanca", Class: "Film", Attr: "director", Value: "Michael Curtiz", Confidence: 0.97, Sources: 5},
		{Entity: "Casablanca", Class: "Film", Attr: "language", Value: "English", Confidence: 0.92, Sources: 4},
		{Entity: "Moby Dick", Class: "Book", Attr: "author", Value: "Herman Melville", Confidence: 0.99, Sources: 7},
	})
	path := filepath.Join(t.TempDir(), "kb.akb")
	if err := st.WriteBinarySnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSnapshotVerifyCommand(t *testing.T) {
	path := testSnapshotFile(t)
	if err := cmdSnapshot([]string{"verify", path}); err != nil {
		t.Fatalf("verify of valid snapshot: %v", err)
	}
	if err := cmdSnapshot([]string{"info", path}); err != nil {
		t.Fatalf("info of valid snapshot: %v", err)
	}

	// Corrupt one byte: verify must fail with the checksum message.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[strings.Index(string(raw), "Casablanca")] = 'X'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdSnapshot([]string{"verify", path})
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("verify of corrupt snapshot: %v", err)
	}
	if err := cmdSnapshot([]string{"info", path}); err == nil {
		t.Error("info of corrupt snapshot reported success")
	}

	// A JSON (v2) snapshot is refused by name, with the remedy.
	v2 := filepath.Join(t.TempDir(), "old.akb")
	if err := os.WriteFile(v2, []byte(`{"format":"akb-snapshot","version":2,"count":0,"facts":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdSnapshot([]string{"verify", v2})
	if err == nil || !strings.Contains(err.Error(), "not a v3 snapshot") || !strings.Contains(err.Error(), "akb pipeline -snapshot") {
		t.Fatalf("verify of a JSON snapshot: %v", err)
	}

	for _, bad := range [][]string{nil, {"verify"}, {"bogus", path}} {
		if err := cmdSnapshot(bad); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
}

// TestSnapshotConvertReshards checks `snapshot convert` rewrites the stored
// layout and nothing else: same facts, the requested shard count.
func TestSnapshotConvertReshards(t *testing.T) {
	in := testSnapshotFile(t)
	out := filepath.Join(t.TempDir(), "kb3.akb")
	if err := cmdSnapshot([]string{"convert", "-o", out, "-shards", "3", in}); err != nil {
		t.Fatal(err)
	}
	before, err := store.VerifySnapshotFile(in)
	if err != nil {
		t.Fatal(err)
	}
	after, err := store.VerifySnapshotFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if before.Shards != 1 || after.Shards != 3 || after.Facts != before.Facts {
		t.Errorf("convert -shards 3: %s -> %s", before, after)
	}
	if err := cmdSnapshot([]string{"convert", "-o", out, "-to", "v2", in}); err == nil {
		t.Error("convert -to accepted: the JSON codec is gone")
	}
}

// TestChaosServeCommand runs the full serve-side chaos harness against a
// small snapshot: faults injected, invariants asserted, exit clean.
func TestChaosServeCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run in -short")
	}
	path := testSnapshotFile(t)
	err := cmdChaosServe([]string{
		"-snapshot", path, "-requests", "160", "-workers", "8",
		"-fail-prob", "0.3", "-timeout", "100ms", "-reloads", "4",
	})
	if err != nil {
		t.Fatalf("chaos-serve invariants failed: %v", err)
	}
}

func TestFlagErrors(t *testing.T) {
	if err := cmdTable1([]string{"-bogus"}); err == nil {
		t.Error("bogus flag accepted")
	}
	if err := cmdPipeline([]string{"-faults", "not-a-plan"}); err == nil {
		t.Error("malformed fault plan accepted")
	}
	if err := cmdChaos([]string{"-rates", "1.5"}); err == nil {
		t.Error("out-of-range chaos rate accepted")
	}
	if err := cmdChaos([]string{"-stages", " , "}); err == nil {
		t.Error("empty chaos stage list accepted")
	}
	if err := cmdServe([]string{"-chaos-fail", "1.5"}); err == nil {
		t.Error("out-of-range chaos-fail accepted")
	}
	if err := cmdChaosServe([]string{"-fail-prob", "-1"}); err == nil {
		t.Error("negative fail-prob accepted")
	}
	if err := cmdChaosServe([]string{"-requests", "2", "-workers", "8"}); err == nil {
		t.Error("fewer requests than workers accepted")
	}
}

func TestChaosSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short")
	}
	// A single full-degradation point: every optional stage fails, the
	// sweep must still complete and render its table.
	if err := cmdChaos([]string{"-rates", "1", "-stages", "optional"}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineWithFaultsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short")
	}
	if err := cmdPipeline([]string{"-faults", "extract/textx=1"}); err != nil {
		t.Fatal(err)
	}
}
