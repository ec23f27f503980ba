package fusion_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"akb/internal/experiments"
	"akb/internal/fusion"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goldenFusionPath = "testdata/golden_fusion.json"

// recordedFloat is how floats enter the recorded digests. Six digits, not
// %v: when the digests were recorded ACCU summed its softmax normaliser in
// map order, so the last bits of its beliefs (and of POPACCU's and
// ADAPTIVE's, which run it) differed from run to run by up to 1e-14
// relative, and six digits is what that tree reproduced. ACCU now sums in
// value order; the comparison across worker counts below is exact.
const recordedFloat = "%.6g"

// fusionDigest hashes everything a method decided, in item-key order:
// accepted values as the method ordered them, beliefs by value key, then
// the source-quality estimate by source name, floats printed with ffmt.
func fusionDigest(c *fusion.Claims, res *fusion.Result, ffmt string) string {
	h := sha256.New()
	fmt.Fprintf(h, "decisions %d\n", len(res.Decisions))
	for _, it := range c.Items {
		d := res.Decision(it.Key())
		if d == nil {
			fmt.Fprintf(h, "%q none\n", it.Key())
			continue
		}
		fmt.Fprintf(h, "%q truths", it.Key())
		for _, v := range d.Truths {
			fmt.Fprintf(h, " %q", v.Key())
		}
		// The digests were recorded over beliefs kept by value key.
		belief := fusion.BeliefsByKey(d)
		for _, k := range sortedKeys(belief) {
			fmt.Fprintf(h, " %q="+ffmt, k, belief[k])
		}
		fmt.Fprintln(h)
	}
	for n, q := range res.SourceQuality {
		fmt.Fprintf(h, "quality %q="+ffmt+"\n", c.SourceNames[n], q)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestGoldenFusionDigest pins what every fusion method decides on the two
// workloads of the fusion experiment (E6): the seed-1 default pipeline's
// claims and the same with two copier sources injected. Methods with a
// Workers field must decide the same, to the last bit, at 1 and 4 workers
// (the others are run twice and must agree with themselves). Regenerate with
// `go test ./internal/fusion -run TestGoldenFusionDigest -update` only
// when a change to fusion output is intended.
func TestGoldenFusionDigest(t *testing.T) {
	res := pipelineRun(t)
	workloads := []struct {
		name   string
		claims *fusion.Claims
	}{
		{"pipeline", fusion.BuildClaims(res.Statements, fusion.BySourceExtractor)},
		{"with-copiers", fusion.BuildClaims(experiments.InjectCopiers(res, 2), fusion.BySourceExtractor)},
	}
	methods := func() []fusion.Method {
		ms := append(fusion.AllMethods(res.World.Hier), fusion.FactFinders()...)
		return append(ms, &fusion.Adaptive{})
	}

	golden := map[string]string{}
	if !*update {
		raw, err := os.ReadFile(goldenFusionPath)
		if err != nil {
			t.Fatalf("read golden digests: %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("parse %s: %v", goldenFusionPath, err)
		}
	}

	seen := map[string]bool{}
	for _, wl := range workloads {
		for i := range methods() {
			m := methods()[i]
			key := wl.name + "/" + m.Name()
			if seen[key] {
				t.Fatalf("%s: two methods share a name", key)
			}
			seen[key] = true
			fusion.WithWorkers(m, 1)
			res := m.Fuse(wl.claims)
			got := fusionDigest(wl.claims, res, recordedFloat)
			again := methods()[i]
			fusion.WithWorkers(again, 4)
			if fusionDigest(wl.claims, again.Fuse(wl.claims), "%v") != fusionDigest(wl.claims, res, "%v") {
				t.Errorf("%s: a second run (4 workers where the method has the field) decided differently", key)
			}
			if *update {
				golden[key] = got
				continue
			}
			want, ok := golden[key]
			if !ok {
				t.Fatalf("%s: no golden digest recorded", key)
			}
			if got != want {
				t.Errorf("%s: fusion output changed\n got  %s\n want %s", key, got, want)
			}
		}
	}

	if *update {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFusionPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
