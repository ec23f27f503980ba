package fusion_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"akb/internal/core"
	"akb/internal/experiments"
	"akb/internal/fusion"
	"akb/internal/hierarchy"
	"akb/internal/rdf"
)

// The tests below run over a pipeline run's own statements — 37 sources,
// most items covered by one or two of them — and over the same with two
// copier sources injected, which is where copy detection finds something.

var seedOneRun struct {
	once sync.Once
	res  *core.Result
	err  error
}

func pipelineRun(t testing.TB) *core.Result {
	t.Helper()
	seedOneRun.once.Do(func() {
		seedOneRun.res, seedOneRun.err = core.New().Run(context.Background())
	})
	if seedOneRun.err != nil {
		t.Fatal(seedOneRun.err)
	}
	return seedOneRun.res
}

func pipelineStatementSets(t testing.TB) map[string][]rdf.Statement {
	res := pipelineRun(t)
	return map[string][]rdf.Statement{
		"pipeline":     res.Statements,
		"with-copiers": experiments.InjectCopiers(res, 2),
	}
}

// TestPipelineClaimsMatchReference: on a run's statements, BuildClaims at
// every granularity and DetectCorrelations are the references' answers.
func TestPipelineClaimsMatchReference(t *testing.T) {
	for name, stmts := range pipelineStatementSets(t) {
		for _, g := range []fusion.Granularity{fusion.BySource, fusion.BySourceExtractor, fusion.ByExtractor} {
			label := fmt.Sprintf("%s granularity %d", name, g)
			c := fusion.BuildClaims(stmts, g)
			if !reflect.DeepEqual(c, fusion.ReferenceBuildClaims(stmts, g)) {
				t.Errorf("%s: BuildClaims differs from the reference", label)
			}
			got := fusion.DetectCorrelations(c, fusion.CorrelationConfig{})
			if err := fusion.DiffCorrelations(c, got, fusion.ReferenceDetectCorrelations(c, fusion.CorrelationConfig{})); err != nil {
				t.Errorf("%s: DetectCorrelations differs from the reference: %v", label, err)
			}
			if name == "with-copiers" && g != fusion.ByExtractor && len(got.Pairs) == 0 {
				t.Errorf("%s: no correlated pair among injected copiers", label)
			}
		}
	}
}

// checkMethodRules holds every method of fusion.RuleMethods(forest) to the
// rules it states (fusion.CheckRules) on c.
func checkMethodRules(t *testing.T, label string, c *fusion.Claims, forest *hierarchy.Forest) {
	t.Helper()
	for _, m := range fusion.RuleMethods(forest) {
		if err := fusion.CheckRules(c, m); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

// TestDecisionsMatchReference holds every method's decisions to the
// reference each method's doc comment states — its rules, as
// fusion.CheckRules spells them — on nasty claims at every granularity and
// on E6's two workloads: a pipeline run's claims and the same with two
// copiers injected. The nasty claims must meet the cases the hierarchy
// tells apart: implied truths folded away and implied truths the base
// method rejected as candidates, and items of one value.
func TestDecisionsMatchReference(t *testing.T) {
	forest := fusion.NastyForest()
	var implied, impliedRejected, oneValue int
	r := rand.New(rand.NewSource(25))
	for round := 0; round < 24; round++ {
		stmts := fusion.NastyStatements(r)
		for _, g := range []fusion.Granularity{fusion.BySource, fusion.BySourceExtractor, fusion.ByExtractor} {
			c := fusion.BuildClaims(stmts, g)
			checkMethodRules(t, fmt.Sprintf("round %d granularity %d", round, g), c, forest)
			for _, d := range (&fusion.Full{Forest: forest}).Fuse(c).Decisions {
				if len(d.Item.Values) == 1 {
					oneValue++
				}
				for _, imp := range d.Implied {
					implied++
					if d.Item.Value(imp.Value) != nil {
						impliedRejected++
					}
				}
			}
		}
	}
	t.Logf("%d implied truths, %d of them candidates the base method rejected, %d one-value decisions", implied, impliedRejected, oneValue)
	if implied == 0 || impliedRejected == 0 || implied == impliedRejected || oneValue == 0 {
		t.Error("the claims miss a case: want implied truths both folded away and rejected as candidates, and one-value items")
	}
	for name, stmts := range pipelineStatementSets(t) {
		checkMethodRules(t, name, fusion.BuildClaims(stmts, fusion.BySourceExtractor), pipelineRun(t).World.Hier)
	}
}

// TestAllMethodsInvariants runs the same rules on a synthetic world of four
// sources of set accuracies, where every method has something to learn.
func TestAllMethodsInvariants(t *testing.T) {
	stmts, _ := fusion.SynthWorld(t, 5, 40, map[string]float64{"a": 0.9, "b": 0.7, "c": 0.5, "d": 0.3})
	checkMethodRules(t, "synthetic world", fusion.BuildClaims(stmts, fusion.BySource), fusion.NastyForest())
}

// TestFullInvariantUnderStatementPermutation: the default path end to end —
// BuildClaims, copy detection, the fold, multi-truth EM — decides the same,
// to the last bit, whatever order the statements arrive in.
func TestFullInvariantUnderStatementPermutation(t *testing.T) {
	forest := pipelineRun(t).World.Hier
	for name, stmts := range pipelineStatementSets(t) {
		fuse := func(stmts []rdf.Statement) *fusion.Result {
			c := fusion.BuildClaims(stmts, fusion.BySourceExtractor)
			return (&fusion.Full{Forest: forest, Workers: 1}).Fuse(c)
		}
		want := fuse(stmts)
		r := rand.New(rand.NewSource(22))
		for round := 0; round < 2; round++ {
			shuffled := append([]rdf.Statement(nil), stmts...)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if err := fusion.DiffResults(fuse(shuffled), want); err != nil {
				t.Errorf("%s shuffle %d: %v", name, round, err)
			}
		}
	}
}

// renameSources publishes every source of the claims — a (source, extractor)
// pair, at the source+extractor granularity — under a new name: source n
// becomes "r<to[n]>" read by the extractor it was, so its new number is to[n].
func renameSources(t *testing.T, stmts []rdf.Statement, c *fusion.Claims, to []int) ([]rdf.Statement, *fusion.Claims) {
	t.Helper()
	out := append([]rdf.Statement(nil), stmts...)
	for i := range out {
		p := &out[i].Provenance
		if n, ok := c.SourceNumber(p.Source + "+" + p.Extractor); ok {
			p.Source = fmt.Sprintf("r%04d", to[n])
		}
	}
	renamed := fusion.BuildClaims(out, fusion.BySourceExtractor)
	if len(renamed.SourceNames) != len(c.SourceNames) {
		t.Fatalf("%d sources after the renaming, %d before", len(renamed.SourceNames), len(c.SourceNames))
	}
	for n := range c.SourceNames {
		if want := fmt.Sprintf("r%04d+", to[n]); !strings.HasPrefix(renamed.SourceNames[to[n]], want) {
			t.Fatalf("source %d is %s after the renaming, want %s…", to[n], renamed.SourceNames[to[n]], want)
		}
	}
	return out, renamed
}

// TestSourceRenamingAndPermutation: a method knows a source by its number
// alone. Renaming every source so that the names keep their order keeps every
// number, and so every truth, belief and source quality to the bit; a
// renaming that permutes the numbers changes the order sums are taken in and
// leaves the truths equal and the beliefs and qualities within 1e-9. The
// correlation clusters are the same sources under their new names.
func TestSourceRenamingAndPermutation(t *testing.T) {
	forest := pipelineRun(t).World.Hier
	methods := func() []fusion.Method {
		ms := append(fusion.AllMethods(forest), fusion.FactFinders()...)
		return append(ms, &fusion.Adaptive{})
	}
	for name, stmts := range pipelineStatementSets(t) {
		c := fusion.BuildClaims(stmts, fusion.BySourceExtractor)
		wantClusters := fusion.DetectCorrelations(c, fusion.CorrelationConfig{}).Clusters()
		if name == "with-copiers" && len(wantClusters) == 0 {
			t.Errorf("%s: no cluster among injected copiers", name)
		}
		var want []*fusion.Result
		for _, m := range methods() {
			want = append(want, m.Fuse(c))
		}

		identity := make([]int, len(c.SourceNames))
		for n := range identity {
			identity[n] = n
		}
		// A cluster's representative, the member that votes at full weight,
		// is its first name, so the permutation keeps every representative
		// first in its cluster. One that does not moves FULL's beliefs on
		// the pipeline's claims in the third decimal and a truth with them:
		// the copy discount's own dependence on names (ROADMAP item 3).
		perm := rand.New(rand.NewSource(27)).Perm(len(identity))
		for _, cluster := range wantClusters {
			rep, _ := c.SourceNumber(cluster[0])
			for _, s := range cluster[1:] {
				if n, _ := c.SourceNumber(s); perm[n] < perm[rep] {
					perm[n], perm[rep] = perm[rep], perm[n]
				}
			}
		}
		renamings := []struct {
			name string
			to   []int
			same func(a, b float64) bool
		}{
			{"order-preserving", identity, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }},
			{"permuting", perm, func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }},
		}
		for _, rn := range renamings {
			label := name + " " + rn.name
			_, renamed := renameSources(t, stmts, c, rn.to)
			for mi, m := range methods() {
				got, want := m.Fuse(renamed), want[mi]
				if len(got.Decisions) != len(want.Decisions) {
					t.Fatalf("%s %s: %d decisions, want %d", label, m.Name(), len(got.Decisions), len(want.Decisions))
				}
				for i := range want.Decisions {
					g, w := &got.Decisions[i], &want.Decisions[i]
					if g.Item.Key() != w.Item.Key() || !reflect.DeepEqual(g.Truths, w.Truths) {
						t.Fatalf("%s %s: decision %d accepts %v for %s, want %v for %s", label, m.Name(), i, g.Truths, g.Item.Key(), w.Truths, w.Item.Key())
					}
					if len(g.Belief) != len(w.Belief) || len(g.Implied) != len(w.Implied) {
						t.Fatalf("%s %s: %s has %d beliefs and %d implied truths, want %d and %d", label, m.Name(), g.Item.Key(), len(g.Belief), len(g.Implied), len(w.Belief), len(w.Implied))
					}
					for k := range w.Belief {
						if !rn.same(g.Belief[k], w.Belief[k]) {
							t.Errorf("%s %s: %s belief in %v is %v, want %v", label, m.Name(), g.Item.Key(), g.Item.Values[k].Value, g.Belief[k], w.Belief[k])
						}
					}
					for k, wi := range w.Implied {
						if gi := g.Implied[k]; gi.Value != wi.Value || gi.Sources != wi.Sources || !rn.same(gi.Belief, wi.Belief) {
							t.Errorf("%s %s: %s implies %v, want %v", label, m.Name(), g.Item.Key(), gi, wi)
						}
					}
				}
				if len(got.SourceQuality) != len(want.SourceQuality) {
					t.Fatalf("%s %s: %d source qualities, want %d", label, m.Name(), len(got.SourceQuality), len(want.SourceQuality))
				}
				for n, w := range want.SourceQuality {
					if g := got.SourceQuality[rn.to[n]]; !rn.same(g, w) {
						t.Errorf("%s %s: quality of %s, now %s, is %v, want %v", label, m.Name(), c.SourceNames[n], renamed.SourceNames[rn.to[n]], g, w)
					}
				}
			}

			var mapped [][]string
			for _, cluster := range wantClusters {
				var members []string
				for _, s := range cluster {
					n, _ := c.SourceNumber(s)
					members = append(members, renamed.SourceNames[rn.to[n]])
				}
				sort.Strings(members)
				mapped = append(mapped, members)
			}
			sort.Slice(mapped, func(i, j int) bool { return mapped[i][0] < mapped[j][0] })
			if got := fusion.DetectCorrelations(renamed, fusion.CorrelationConfig{}).Clusters(); len(got)+len(mapped) > 0 && !reflect.DeepEqual(got, mapped) {
				t.Errorf("%s: clusters %v, want %v", label, got, mapped)
			}
		}
	}
}

// TestBuildClaimsAllocationBound counts the work: BuildClaims allocates a
// fixed number of arrays, the map of sources and its growth, and one name a
// source at the source+extractor granularity — not a key a distinct item.
// Measured 62 allocations on this run, 37 of them the names of its 37
// sources, for 5 388 statements and 2 992 items; spelling each item's key
// made 3 069, and the string-keyed reference makes 10.3 a statement. The
// ceiling is the names plus 10 % above the other 25.
func TestBuildClaimsAllocationBound(t *testing.T) {
	stmts := pipelineRun(t).Statements
	sources := len(fusion.BuildClaims(stmts, fusion.BySourceExtractor).SourceNames)
	allocs := testing.AllocsPerRun(3, func() { fusion.BuildClaims(stmts, fusion.BySourceExtractor) })
	t.Logf("%.0f allocations for %d statements from %d sources", allocs, len(stmts), sources)
	if ceiling := float64(sources + 28); allocs > ceiling {
		t.Errorf("%.0f allocations for %d sources, want at most %.0f", allocs, sources, ceiling)
	}
}

// BenchmarkFusionDefaultPath times the three calls of core's fuse stage
// over a pipeline run's own statements (seed 3, scale 4: 37 sources, each
// item covered by 1.7 of them on average). The other fusion benchmarks
// give every item all of their 8 synthetic sources, which is not that
// shape. Profile from here:
//
//	go test ./internal/fusion -run '^$' -bench FusionDefaultPath -cpuprofile cpu.pprof
func BenchmarkFusionDefaultPath(b *testing.B) {
	res, err := core.New(core.WithSeed(3), core.WithScale(4)).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	claims := fusion.BuildClaims(res.Statements, fusion.BySourceExtractor)
	b.Run("BuildClaims", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fusion.BuildClaims(res.Statements, fusion.BySourceExtractor)
		}
	})
	b.Run("DetectCorrelations", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fusion.DetectCorrelations(claims, fusion.CorrelationConfig{})
		}
	})
	b.Run("FullFuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			(&fusion.Full{Forest: res.World.Hier, Workers: 1}).Fuse(claims)
		}
	})
}
