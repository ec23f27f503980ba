package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"akb/internal/core"
	"akb/internal/rdf"
)

// TestGoldenExportDigest pins the bytes `akb export` writes: the fused
// KB as N-Triples and, with -quads, the raw statements as N-Quads, for
// seeds 1 and 7. The digests were recorded on the tree that still built
// an rdf.Store for the export (PR 16's first commit), so a green run
// proves the export did not move when that store was removed. -short
// runs seed 1 only.
func TestGoldenExportDigest(t *testing.T) {
	golden := []struct {
		args   []string
		sha256 string
	}{
		{[]string{"-seed", "1"}, "0ec46815bbb1422496b8cf79c475c95ab7577691e210d0506b6818562d24f779"},
		{[]string{"-seed", "1", "-quads"}, "0a234d231a436c36e76041500a6c2278c5f07ac0e2bda1dec61b9792ab951042"},
		{[]string{"-seed", "7"}, "8aa00ec87dcc7b315f5272e04ffc66290e2b7171150e6e8ee26ada010efe12e1"},
		{[]string{"-seed", "7", "-quads"}, "d4e4d5cd79ffa3d4bbba7187ae7122b3ce206ce0617fd918fe04c0196dc07071"},
	}
	if testing.Short() {
		golden = golden[:2]
	}
	for _, g := range golden {
		name := strings.Join(g.args, " ")
		path := filepath.Join(t.TempDir(), "kb.out")
		if err := cmdExport(append([]string{"-o", path}, g.args...)); err != nil {
			t.Fatalf("export %s: %v", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != g.sha256 {
			t.Errorf("export %s: %d bytes hash to %s, want %s", name, len(data), got, g.sha256)
		}
	}
}

// TestExportReadsBackAsTheRun ties the rdf readers to the product they
// referee: what `akb export` writes for seed 1, read back, is the run — with
// -quads its statements in order (triple and provenance exactly, the
// confidence to the six decimals written), without it the accepted triples.
func TestExportReadsBackAsTheRun(t *testing.T) {
	res, err := core.New(core.WithSeed(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	export := func(args ...string) io.Reader {
		path := filepath.Join(t.TempDir(), "kb.out")
		if err := cmdExport(append([]string{"-seed", "1", "-o", path}, args...)); err != nil {
			t.Fatalf("export %v: %v", args, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(data)
	}

	stmts, err := rdf.ReadNQuads(export("-quads"))
	if err != nil {
		t.Fatalf("reading the -quads export back: %v", err)
	}
	if len(stmts) != len(res.Statements) {
		t.Fatalf("read %d statements back, the run has %d", len(stmts), len(res.Statements))
	}
	for i, want := range res.Statements {
		got := stmts[i]
		if got.Triple != want.Triple || got.Provenance != want.Provenance || math.Abs(got.Confidence-want.Confidence) > 5e-7 {
			t.Fatalf("statement %d reads back as %v, the run has %v", i, got, want)
		}
	}

	triples, err := rdf.ReadNTriples(export())
	if err != nil {
		t.Fatalf("reading the export back: %v", err)
	}
	if want := acceptedTriples(res.Fused()); !slices.Equal(triples, want) {
		t.Fatalf("read %d triples back that are not the run's %d accepted ones", len(triples), len(want))
	}
}

// BenchmarkAugmentedExport measures `akb export` after the pipeline run:
// collecting the accepted triples in order and serialising them as
// N-Triples.
func BenchmarkAugmentedExport(b *testing.B) {
	res, err := core.New().Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rdf.WriteNTriples(io.Discard, acceptedTriples(res.Fused())); err != nil {
			b.Fatal(err)
		}
	}
}
