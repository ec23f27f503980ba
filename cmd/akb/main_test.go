package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"akb/internal/store"
)

// TestFastCommandsRun smoke-tests the CLI plumbing of every experiment in
// the table (the experiments package tests what they compute). -short
// keeps the three instant paper tables.
func TestFastCommandsRun(t *testing.T) {
	for _, e := range experimentTable {
		if testing.Short() && !strings.HasPrefix(e.name, "table") {
			continue
		}
		out, err := captureStdout(t, func() error { return cmdExp([]string{e.name}) })
		if err != nil || len(out) == 0 {
			t.Errorf("exp %s: %d bytes, err %v", e.name, len(out), err)
		}
	}
}

// TestCommandRegistry checks both tables are well-formed: commands() and
// the experiment table it reaches through `akb exp`.
func TestCommandRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range commands() {
		if c.name == "" || c.brief == "" || c.run == nil || seen[c.name] {
			t.Errorf("incomplete or duplicate command %+v", c)
		}
		seen[c.name] = true
	}
	if len(seen) != 10 || !seen["exp"] {
		t.Errorf("%d commands, want 10 with exp among them: %v", len(seen), seen)
	}
	exps := map[string]bool{"all": true}
	for _, e := range experimentTable {
		if e.name == "" || e.number == "" || e.label == "" || exps[e.name] {
			t.Errorf("incomplete or duplicate experiment %+v", e)
		}
		exps[e.name] = true
		if table := e.title != "" && len(e.header) > 0 && e.rows != nil; table == (e.print != nil) {
			t.Errorf("experiment %s must be either a table or a printer", e.name)
		}
		// An experiment is not a command: the old top-level names are gone.
		if seen[e.name] && e.name != "pipeline" {
			t.Errorf("experiment %q is also a top-level command", e.name)
		}
	}
}

// TestExpDispatch pins the exit codes around `akb exp`: a name outside the
// table is a usage error (exit 2) that lists the table, and the old
// top-level experiment commands, like the retired chaos-serve harness, are
// unknown commands.
func TestExpDispatch(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"exp", "nosuch"}, 2}, {[]string{"exp"}, 2}, {[]string{"table1"}, 2}, {[]string{"all"}, 2}, {[]string{"chaos-serve"}, 2}, {nil, 2},
		{[]string{"exp", "table1", "-bogus"}, 1},
		{[]string{"exp", "table1"}, 0},
	} {
		if code := run(c.args); code != c.code {
			t.Errorf("akb %v exited %d, want %d", c.args, code, c.code)
		}
	}
	err := cmdExp([]string{"nosuch"})
	for _, e := range experimentTable {
		if err == nil || !strings.Contains(err.Error(), e.name) {
			t.Fatalf("exp nosuch does not list %q: %v", e.name, err)
		}
	}
}

// TestExpFlagsBelongToTheirExperiment: an experiment's own flag is taken
// by `akb exp <that name>` and by nothing else, `all` included (the old
// `akb all -scale 50` handed -scale to table1 and died there).
func TestExpFlagsBelongToTheirExperiment(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdExp([]string{"table3", "-scale", "2000"}) })
	if err != nil || !strings.Contains(string(out), "records scaled 1/2000") {
		t.Errorf("exp table3 -scale 2000: err %v, output %q", err, out)
	}
	for _, args := range [][]string{
		{"all", "-scale", "50"},
		{"all", "-buckets", "4"},
		{"table1", "-scale", "50"},
		{"calibration", "-scale", "50"},
	} {
		out, err := captureStdout(t, func() error { return cmdExp(args) })
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") || len(out) != 0 {
			t.Errorf("exp %v: %d bytes printed, err %v; want nothing and an undefined-flag error", args, len(out), err)
		}
	}
}

// TestExpAllPassesSeedToEveryExperiment: `akb exp all -seed 7` prints,
// under each experiment's heading and in table order, exactly what
// `akb exp <name> -seed 7` prints. E14 comes last and its columns are
// wall-clock, so the comparison stops at its title line.
func TestExpAllPassesSeedToEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	all, err := captureStdout(t, func() error { return cmdExp([]string{"all", "-seed", "7"}) })
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i, e := range experimentTable {
		if i > 0 {
			want.WriteString("\n")
		}
		fmt.Fprintf(&want, "=== %s: %s ===\n", e.number, e.label)
		if e.name == "scale" {
			want.WriteString(e.title + "\n")
			break
		}
		out, err := captureStdout(t, func() error { return cmdExp([]string{e.name, "-seed", "7"}) })
		if err != nil {
			t.Fatalf("exp %s -seed 7: %v", e.name, err)
		}
		want.Write(out)
	}
	if !strings.HasPrefix(string(all), want.String()) {
		t.Errorf("`exp all -seed 7` is not its experiments' own output under their headings:\n%s", all)
	}
	// The comparison has teeth only where the seed shows in the output.
	seed1, err := captureStdout(t, func() error { return cmdExp([]string{"temporal"}) })
	if err != nil || strings.Contains(string(all), string(seed1)) {
		t.Errorf("`exp all -seed 7` printed seed 1's temporal table (err %v)", err)
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

func TestFlagErrors(t *testing.T) {
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
	// An unknown level is refused before the snapshot is served: were it
	// accepted, the call would listen and never return.
	if err := cmdServe([]string{"-log-level", "bogus", "-snapshot", testSnapshotFile(t), "-addr", "127.0.0.1:0"}); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Errorf("-log-level bogus: err = %v, want a -log-level error", err)
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
