package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs fn with os.Stdout pointed at a temp file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) ([]byte, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = saved
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return data, runErr
}

// TestGoldenExperimentOutput pins the stdout of the ten deterministic
// experiment printers and of `akb pipeline` for seed 1. The digests were
// recorded on the tree where each printer was its own top-level command
// with its own cmd* function (PR 18's first commit, which ran them through
// commands()), so a green run proves the experiment table prints the same
// bytes. -short runs the three instant paper tables only.
func TestGoldenExperimentOutput(t *testing.T) {
	golden := goldenExperiments
	if testing.Short() {
		golden = golden[:3]
	}
	for _, g := range golden {
		out, err := captureStdout(t, func() error { return cmdExp([]string{g.name, "-seed", "1"}) })
		if err != nil {
			t.Errorf("%s: %v", g.name, err)
			continue
		}
		if got := sha256Hex(out); got != g.sha256 {
			t.Errorf("%s: %d bytes hash to %s, want %s", g.name, len(out), got, g.sha256)
		}
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenExperiments is the seed-1 stdout digest of each pinned experiment.
var goldenExperiments = []struct{ name, sha256 string }{
	{"table1", "e3c7cd5babda0c7cbeb715cffcf7bba7aafe0b595bb8067e44b0d5ffd31f6a0a"},
	{"table2", "145f06e10335959a042eb399fac871d8394146e45f8507cc9f6137b8a63d1bdf"},
	{"table3", "fcebc676b0306ec7b6cec5ff332845e56cda514e179a7d3c7dc372fa26402eb2"},
	{"domsweep", "8e8185f63fa98053983986c34ff436d4438236adf17fee4781458fbc2bdd8b9c"},
	{"fusion", "2644949ce7a7bd3159d16fc19c977b932756b220ea08c786c9e5125792bad199"},
	{"ablation", "7a766525d5fef88aa1dcba5a106057117c7ef0f06739849994bf00fb48c110b7"},
	{"discover", "857171bbdfe142f8e27f6aed8ba9e7d008eca1339b2192cfbb77ffd167947a06"},
	{"calibration", "eaef86ceab08587da6af450402c58f7d04c1f05024d69828127202fefb9e4bac"},
	{"temporal", "515d7527640d8e48b0a472ca7703c1a8f7a0b2b7df568fd8e8e6e9ad439116a7"},
	{"granularity", "2ea264939d3eec33b065b09548561531820b60a811ac476053f488de14a5434e"},
	{"pipeline", "e6a6cc38aaa8cfa5c4b5539fdf998cb99124babaa57f3890fda425aed4889b2d"},
}

// TestSeedReachesPipelineExperiments: the experiments that run the whole
// pipeline print another table for another seed. Config.Seed alone seeds
// only retry jitter; a run is reseeded through core.WithSeed.
func TestSeedReachesPipelineExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five pipeline experiments")
	}
	wholePipeline := map[string]bool{"fusion": true, "ablation": true, "discover": true, "calibration": true, "granularity": true}
	for _, g := range goldenExperiments {
		if !wholePipeline[g.name] {
			continue
		}
		out, err := captureStdout(t, func() error { return cmdExp([]string{g.name, "-seed", "2"}) })
		if err != nil {
			t.Errorf("%s: %v", g.name, err)
			continue
		}
		if sha256Hex(out) == g.sha256 {
			t.Errorf("exp %s -seed 2 printed seed 1's bytes", g.name)
		}
	}
}
