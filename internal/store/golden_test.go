package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"akb/internal/core"
)

const goldenSnapshotsPath = "testdata/golden_snapshots.json"

// snapshotDigest is the identity of one version-3 snapshot file.
type snapshotDigest struct {
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

// TestGoldenSnapshotDigest pins the version-3 codec's bytes: the snapshot
// of a live pipeline run must hash to the digest checked into testdata,
// for every seed, scale and shard count. The digests were recorded before
// the writer and the index builder were rewritten (PR 13), so a green run
// proves the format did not move and that files written by either side of
// that change are the same files. Regenerate with
// `go test ./internal/store -run TestGoldenSnapshotDigest -update` only
// when a format change is intended. -short runs seed 1 at scale 1 only.
func TestGoldenSnapshotDigest(t *testing.T) {
	seeds, scales := []int64{1, 7, 42}, []int{1, 4}
	if testing.Short() && !*update {
		seeds, scales = seeds[:1], scales[:1]
	}
	golden := map[string]snapshotDigest{}
	if !*update {
		raw, err := os.ReadFile(goldenSnapshotsPath)
		if err != nil {
			t.Fatalf("read golden digests: %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("parse %s: %v", goldenSnapshotsPath, err)
		}
	}
	for _, seed := range seeds {
		for _, scale := range scales {
			res, err := core.New(core.WithSeed(seed), core.WithScale(scale)).Run(context.Background())
			if err != nil {
				t.Fatalf("seed=%d scale=%d: %v", seed, scale, err)
			}
			facts := ResultFacts(res)
			for _, shards := range []int{1, 8} {
				key := fmt.Sprintf("seed=%d/scale=%d/shards=%d", seed, scale, shards)
				var buf bytes.Buffer
				if err := NewSharded(facts, shards).WriteBinarySnapshot(&buf); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				got := snapshotDigest{SHA256: hex.EncodeToString(sum[:]), Bytes: buf.Len()}
				if *update {
					golden[key] = got
					continue
				}
				want, ok := golden[key]
				if !ok {
					t.Fatalf("%s: no golden digest recorded", key)
				}
				if got != want {
					t.Errorf("%s: snapshot bytes changed\n got  %+v\n want %+v", key, got, want)
				}
			}
		}
	}
	if *update {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSnapshotsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
