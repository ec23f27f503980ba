package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"akb/internal/core"
	"akb/internal/extract"
	"akb/internal/store"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goldenKBPath = "testdata/golden_kb.json"

// kbDigest is the identity of one pipeline run's output: the fused KB in
// the store's canonical order plus the extractors' statement union.
type kbDigest struct {
	FactsSHA256      string `json:"facts_sha256"`
	Facts            int    `json:"facts"`
	Statements       int    `json:"statements"`
	StatementsSHA256 string `json:"statements_sha256"`
}

// factsSHA renders facts exactly as bench/build.go's factsSHA does, so a
// digest here and the benchmark's kb_sha256 agree for the same options.
func factsSHA(facts []store.Fact) string {
	h := sha256.New()
	for _, f := range store.New(facts).Facts() {
		fmt.Fprintf(h, "%q %q %q %q %v %d %q\n", f.Entity, f.Class, f.Attr, f.Value, f.Confidence, f.Sources, f.Ancestors)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestOf(res *core.Result) kbDigest {
	facts := res.Facts()
	h := sha256.New()
	for _, s := range res.Statements {
		fmt.Fprintf(h, "%s %q %v\n", s.Triple, s.Provenance.Key(), s.Confidence)
	}
	return kbDigest{
		FactsSHA256:      factsSHA(facts),
		Facts:            len(facts),
		Statements:       len(res.Statements),
		StatementsSHA256: hex.EncodeToString(h.Sum(nil)),
	}
}

// TestGoldenKBDigest pins the pipeline's output bytes: for every seed and
// configuration the fused KB and the statement union must hash to the
// digests checked into testdata, at every parallelism. The digests were
// recorded before the build-journey optimisations of PR 12, so a green run
// proves those (and any later perf work) changed no output. Regenerate with
// `go test ./internal/core -run TestGoldenKBDigest -update` only when an
// output change is intended.
func TestGoldenKBDigest(t *testing.T) {
	configs := []struct {
		name  string
		opts  []core.Option
		seeds []int64 // nil runs every seed
	}{
		{"default@1", nil, nil},
		{"default@2", []core.Option{core.WithScale(2)}, nil},
		{"all-stages@2", append([]core.Option{core.WithScale(2)}, allStages...), nil},
		// Scale 4 is the benchmark's datalog build; entity names that are
		// prefixes of one another ("Film 1" / "Film 12") only get dense here.
		{"default@4", []core.Option{core.WithScale(4)}, nil},
		// The one build where entity discovery's link distance shows: at
		// scale 2 every seed gives the same bytes at distance 0 and 1.
		{"all-stages@4", append([]core.Option{core.WithScale(4)}, allStages...), []int64{1}},
	}
	seeds := []int64{1, 7, 42}
	if testing.Short() && !*update {
		// One seed and no scale-4 builds: 9 runs instead of 39.
		seeds = seeds[:1]
		configs = configs[:3]
	}

	golden := map[string]kbDigest{}
	if !*update {
		raw, err := os.ReadFile(goldenKBPath)
		if err != nil {
			t.Fatalf("read golden digests: %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("parse %s: %v", goldenKBPath, err)
		}
	}

	for _, seed := range seeds {
		for _, cfg := range configs {
			if cfg.seeds != nil && !slices.Contains(cfg.seeds, seed) {
				continue
			}
			key := fmt.Sprintf("seed=%d/%s", seed, cfg.name)
			for _, par := range []int{1, 2, 4} {
				opts := append([]core.Option{core.WithSeed(seed)}, cfg.opts...)
				opts = append(opts, core.WithParallelism(par))
				res, err := core.New(opts...).Run(context.Background())
				if err != nil {
					t.Fatalf("%s par=%d: %v", key, par, err)
				}
				got := digestOf(res)
				if *update && par == 1 {
					golden[key] = got
					continue
				}
				want, ok := golden[key]
				if !ok {
					t.Fatalf("%s: no golden digest recorded", key)
				}
				if got != want {
					t.Errorf("%s par=%d: output changed\n got  %+v\n want %+v", key, par, got, want)
				}
			}
		}
	}

	if *update {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenKBPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenKBPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultFactsFollowTheDecisions holds Result.Facts to its doc comment
// on seeds 1–3 of the default pipeline and of the one with every optional
// stage: one fact per truth, in the decisions' order and within a decision
// in its truths', in a slice of exactly that size and the same when asked
// twice; each the truth's value under its item's entity and attribute,
// believed and sourced as the decision supports it, with the entity's class
// and the value's ancestors in the world. Every fact has a source, implied
// generalisations too, and every run has some.
func TestResultFactsFollowTheDecisions(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for name, opts := range map[string][]core.Option{"default": nil, "every stage": allStages} {
			label := fmt.Sprintf("seed %d %s", seed, name)
			res, err := core.New(append([]core.Option{core.WithSeed(seed)}, opts...)...).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, fused := res.Facts(), res.Fused()
			if len(got) != fused.NumTruths() || cap(got) != len(got) {
				t.Fatalf("%s: %d facts in a slice of %d for %d truths", label, len(got), cap(got), fused.NumTruths())
			}
			if again := res.Facts(); !reflect.DeepEqual(got, again) {
				t.Errorf("%s: a second call returns other facts or another order", label)
			}
			k, implied := 0, 0
			for i := range fused.Decisions {
				d := &fused.Decisions[i]
				entity := extract.AttrFromIRI(d.Item.Subject)
				class := ""
				if e, ok := res.World.Entity(entity); ok {
					class = e.Class
				}
				implied += len(d.Implied)
				for _, tr := range d.Truths {
					belief, sources, _ := d.Support(tr)
					want := store.Fact{Entity: entity, Class: class, Attr: extract.AttrFromIRI(d.Item.Predicate), Value: tr.Value,
						Confidence: belief, Sources: sources, Ancestors: res.World.Hier.Ancestors(tr.Value)}
					if !reflect.DeepEqual(got[k], want) || sources < 1 {
						t.Fatalf("%s: fact %d is %+v, want %+v with a source", label, k, got[k], want)
					}
					k++
				}
			}
			if implied == 0 {
				t.Errorf("%s: no implied generalisation among %d facts", label, len(got))
			}
		}
	}
}
