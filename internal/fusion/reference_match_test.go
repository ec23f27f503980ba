package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"akb/internal/hierarchy"
	"akb/internal/rdf"
)

// keyTerms are subjects and predicates whose item keys order differently
// from their terms: values that are prefixes of one another where the next
// byte sorts below '|' ('_', ' ', 'a') or above it ('~', 0xFF), '|' inside
// values, empty values, and one value under three kinds. "a|ib" with "c"
// and "a" with "b|ic" spell one key.
var keyTerms = []rdf.Term{
	rdf.IRI("a"), rdf.IRI("a_"), rdf.IRI("a "), rdf.IRI("aa"), rdf.IRI("a~"), rdf.IRI("a\xff"),
	rdf.IRI("a|"), rdf.IRI("a|ib"), rdf.IRI("b|ic"), rdf.IRI("c"), rdf.IRI("|"), rdf.IRI(""),
	rdf.Blank("a"), rdf.Blank("a|ib"), rdf.Blank(""), rdf.Literal("a"), rdf.Literal(""),
}

// keyTerm returns the keyTerms entry n names.
func keyTerm(n uint8) rdf.Term { return keyTerms[int(n)%len(keyTerms)] }

// spell makes statement k of a generated set from six small numbers; the
// generators below and the fuzzer share it. An entity or a predicate of 128
// or more is a keyTerms entry; below that, entities are IRIs e/N and
// predicates one of three attr/pN. Values 0–2 of an item are
// literals; 3 and 4 spell "v0" again as an IRI and as a blank node and 5
// spells "v1" as an IRI (so they differ from values 0 and 1 in kind only);
// 6 is another IRI and 7 another blank node. Sources 0–3 are hosts read by
// extractor e0 or e1; 4 and 5 are two (source, extractor) identities that
// spell the one name "a+b+c" at the source+extractor granularity.
func spell(entity, pred, value, source, extractor, conf uint8) rdf.Statement {
	obj := rdf.Literal(fmt.Sprintf("v%d", value%8))
	switch value % 8 {
	case 3:
		obj = rdf.IRI("v0")
	case 4:
		obj = rdf.Blank("v0")
	case 5:
		obj = rdf.IRI("v1")
	case 6:
		obj = rdf.AKB.IRI("v6")
	case 7:
		obj = rdf.Blank("v7")
	}
	prov := rdf.Provenance{
		Source:    fmt.Sprintf("host%d", source%6),
		Extractor: fmt.Sprintf("e%d", extractor%2),
		Document:  fmt.Sprintf("doc%d", conf),
	}
	switch source % 6 {
	case 4:
		prov.Source, prov.Extractor = "a+b", "c"
	case 5:
		prov.Source, prov.Extractor = "a", "b+c"
	}
	subject, predicate := rdf.AKB.IRI(fmt.Sprintf("e/%d", entity)), rdf.AKB.IRI(fmt.Sprintf("attr/p%d", pred%3))
	if entity >= 128 {
		subject = keyTerm(entity - 128)
	}
	if pred >= 128 {
		predicate = keyTerm(pred - 128)
	}
	return rdf.S(
		rdf.T(subject, predicate, obj),
		prov,
		[]float64{0, 0.3, 0.55, 0.8, 1}[conf%5],
	)
}

func generatedStatements(r *rand.Rand, n, entities int) []rdf.Statement {
	stmts := make([]rdf.Statement, n)
	for k := range stmts {
		stmts[k] = spell(uint8(r.Intn(entities)), uint8(r.Intn(3)), uint8(r.Intn(8)),
			uint8(r.Intn(6)), uint8(r.Intn(2)), uint8(r.Intn(5)))
	}
	return stmts
}

var granularities = []Granularity{BySource, BySourceExtractor, ByExtractor}

// TestBuildClaimsMatchesReference holds BuildClaims to the string-keyed
// reference on generated statement sets — few entities, so every set has
// duplicate (item, value, source) assertions with different confidences,
// unscored statements, one source under two extractors and values that
// differ in kind only — at all three granularities, and in
// a shuffled order against the reference's answer for the original one.
func TestBuildClaimsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for round := 0; round < 60; round++ {
		stmts := generatedStatements(r, 1+r.Intn(400), 1+r.Intn(12))
		shuffled := append([]rdf.Statement(nil), stmts...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, g := range granularities {
			want := referenceBuildClaims(stmts, g)
			if got := BuildClaims(stmts, g); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d granularity %d: BuildClaims differs from the reference", round, g)
			}
			if got := BuildClaims(shuffled, g); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d granularity %d: BuildClaims depends on statement order", round, g)
			}
		}
	}
	if got, want := BuildClaims(nil, BySource), referenceBuildClaims(nil, BySource); !reflect.DeepEqual(got, want) {
		t.Errorf("no statements: got %+v, want %+v", got, want)
	}
}

// TestBuildClaimsKeyCollisions: what the reference does when two
// (subject, predicate) pairs spell one item key — one item, under the terms
// of the statement that came first — BuildClaims does too.
func TestBuildClaimsKeyCollisions(t *testing.T) {
	prov := rdf.Provenance{Source: "s", Extractor: "x"}
	stmts := []rdf.Statement{
		rdf.S(rdf.T(rdf.IRI("a|ib"), rdf.IRI("c"), rdf.Literal("v")), prov, 0.5),
		rdf.S(rdf.T(rdf.IRI("a"), rdf.IRI("b|ic"), rdf.Literal("w")), prov, 0.5),
		rdf.S(rdf.T(rdf.IRI("a"), rdf.IRI("b"), rdf.Literal("v")), prov, 0.5),
	}
	for _, order := range [][]int{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}} {
		in := make([]rdf.Statement, len(order))
		for k, i := range order {
			in[k] = stmts[i]
		}
		got, want := BuildClaims(in, BySource), referenceBuildClaims(in, BySource)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("order %v: BuildClaims differs from the reference", order)
		}
		if len(got.Items) != 2 {
			t.Errorf("order %v: %d items, want 2", order, len(got.Items))
		}
	}
}

// TestItemKeyOrder holds the order BuildClaims puts items in to the order
// of their spelled keys on every pair of keyTerms subjects and predicates:
// rdf.CompareItemKeys and Triple.CompareItemKey agree with strings.Compare
// of the spelled keys on every two of them, and BuildClaims over one
// statement of each, in any order, matches the reference and lists the
// items by strictly rising key.
func TestItemKeyOrder(t *testing.T) {
	var triples []rdf.Triple
	var stmts []rdf.Statement
	for e := range keyTerms {
		for p := range keyTerms {
			s := spell(uint8(128+e), uint8(128+p), uint8(e+p), uint8(p), 0, 1+uint8(e))
			triples = append(triples, s.Triple)
			stmts = append(stmts, s)
		}
	}
	for i := range triples {
		a := &triples[i]
		for j := range triples {
			b := &triples[j]
			want := strings.Compare(a.ItemKey(), b.ItemKey())
			if got := rdf.CompareItemKeys(a, b); got != want {
				t.Fatalf("CompareItemKeys(%v|%v, %v|%v) = %d, want %d", a.Subject, a.Predicate, b.Subject, b.Predicate, got, want)
			}
			if got := a.CompareItemKey(b.ItemKey()); got != want {
				t.Fatalf("CompareItemKey(%v|%v, %q) = %d, want %d", a.Subject, a.Predicate, b.ItemKey(), got, want)
			}
		}
	}
	r := rand.New(rand.NewSource(41))
	for round := 0; round < 4; round++ {
		for _, g := range granularities {
			got, want := BuildClaims(stmts, g), referenceBuildClaims(stmts, g)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d granularity %d: BuildClaims differs from the reference", round, g)
			}
			for k := 1; k < len(got.Items); k++ {
				if prev, key := got.Items[k-1].Key(), got.Items[k].Key(); prev >= key {
					t.Fatalf("round %d: item %d key %q follows %q", round, k, key, prev)
				}
			}
		}
		r.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	}
}

// FuzzBuildClaimsMatchesReference spells statements from the fuzzer's
// bytes, six a statement, and holds BuildClaims to the reference.
func FuzzBuildClaimsMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 3, 1, 0, 3, 4, 0, 0}, uint8(1))
	f.Add([]byte{0, 1, 4, 4, 0, 2, 0, 1, 4, 5, 0, 4, 0, 1, 5, 1, 1, 0}, uint8(1))
	// keyTerms pairs whose keys order differently from their terms, or
	// collide: two statements each.
	key := func(t rdf.Term) byte { return byte(128 + slices.Index(keyTerms, t)) }
	for _, pair := range [][4]rdf.Term{
		{rdf.IRI("a"), rdf.IRI("c"), rdf.IRI("a_"), rdf.IRI("c")},
		{rdf.IRI("a"), rdf.IRI("c"), rdf.IRI("a "), rdf.IRI("c")},
		{rdf.IRI("a"), rdf.IRI("c"), rdf.IRI("aa"), rdf.IRI("c")},
		{rdf.IRI("a"), rdf.IRI("c"), rdf.IRI("a~"), rdf.IRI("c")},
		{rdf.IRI("a"), rdf.IRI("c"), rdf.IRI("a\xff"), rdf.IRI("c")},
		{rdf.IRI("a|ib"), rdf.IRI("c"), rdf.IRI("a"), rdf.IRI("b|ic")},
		{rdf.IRI("a|"), rdf.IRI(""), rdf.IRI("a"), rdf.IRI("|")},
		{rdf.IRI("a"), rdf.IRI("c"), rdf.Blank("a"), rdf.IRI("c")},
		{rdf.Literal("a"), rdf.IRI("c"), rdf.Blank("a|ib"), rdf.IRI("c")},
		{rdf.IRI(""), rdf.Literal(""), rdf.Blank(""), rdf.IRI("")},
	} {
		f.Add([]byte{key(pair[0]), key(pair[1]), 0, 0, 0, 1, key(pair[2]), key(pair[3]), 1, 1, 0, 2}, uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, g uint8) {
		var stmts []rdf.Statement
		for ; len(data) >= 6; data = data[6:] {
			stmts = append(stmts, spell(data[0], data[1], data[2], data[3], data[4], data[5]))
		}
		gran := granularities[int(g)%len(granularities)]
		if got, want := BuildClaims(stmts, gran), referenceBuildClaims(stmts, gran); !reflect.DeepEqual(got, want) {
			t.Fatalf("BuildClaims differs from the reference on %d statements", len(stmts))
		}
	})
}

// diffCorrelations returns how the correlations detected on c differ from the
// reference's, or nil: everything Correlations exposes, a source's cluster
// and weight read by its number against the reference's by its name.
func diffCorrelations(c *Claims, got *Correlations, want *refCorrelations) error {
	if !reflect.DeepEqual(got.Pairs, want.Pairs) {
		return fmt.Errorf("Pairs\n got  %v\n want %v", got.Pairs, want.Pairs)
	}
	if !slices.Equal(got.SourceNames, c.SourceNames) || len(got.ClusterOf) != len(c.SourceNames) {
		return fmt.Errorf("detected on sources %v, %d clusters, the claims name %v", got.SourceNames, len(got.ClusterOf), c.SourceNames)
	}
	for n, s := range c.SourceNames {
		if rep := c.SourceNames[got.ClusterOf[n]]; rep != want.ClusterOf[s] {
			return fmt.Errorf("ClusterOf[%d], of %s, is %s, want %s", n, s, rep, want.ClusterOf[s])
		}
		if got.Weight(n) != want.Weight(s) {
			return fmt.Errorf("Weight(%d), of %s, is %v, want %v", n, s, got.Weight(n), want.Weight(s))
		}
	}
	if g, w := got.Clusters(), want.Clusters(); len(g)+len(w) > 0 && !reflect.DeepEqual(g, w) {
		return fmt.Errorf("Clusters\n got  %v\n want %v", g, w)
	}
	return nil
}

// plantedCopiers is a claim set with every case copy detection decides on:
// "orig" claims 100 items (every tenth with two values); "copy" repeats it
// on 30 of them; "near99" and "near97" repeat all 100 but differ on 1 and
// on 3 — either side of the default 0.98; "twoshared" agrees with orig on
// MinCommonItems−1 items; "alone" shares no item with anyone; "indep" is
// right where orig is on about two thirds.
func plantedCopiers() []rdf.Statement {
	r := rand.New(rand.NewSource(7))
	var stmts []rdf.Statement
	for i := 0; i < 100; i++ {
		item, v := fmt.Sprintf("item%03d", i), fmt.Sprintf("v%03d", i)
		claim := func(source, value string) { stmts = append(stmts, stmt(item, value, source, 0.8)) }
		claim("orig", v)
		if i%10 == 0 {
			claim("orig", v+"b")
		}
		if i < 30 {
			claim("copy", v)
			if i%10 == 0 {
				claim("copy", v+"b")
			}
		}
		for _, near := range []struct {
			name  string
			wrong int
		}{{"near99", 1}, {"near97", 3}} {
			switch {
			case i < near.wrong:
				claim(near.name, "other-"+near.name)
			case i%10 == 0:
				claim(near.name, v)
				claim(near.name, v+"b")
			default:
				claim(near.name, v)
			}
		}
		if i == 50 || i == 51 {
			claim("twoshared", v)
		}
		if r.Intn(3) > 0 {
			claim("indep", v)
		} else {
			claim("indep", "elsewhere")
		}
	}
	stmts = append(stmts, stmt("island", "x", "alone", 0.8))
	return stmts
}

// TestDetectCorrelationsMatchesReference holds the item-by-item count to the
// pairwise walk: the same pairs with the same ratios, the same clusters and
// the same weights, on the planted set and on generated ones under
// configurations loose enough to chain clusters together.
func TestDetectCorrelationsMatchesReference(t *testing.T) {
	c := BuildClaims(plantedCopiers(), BySource)
	got := DetectCorrelations(c, CorrelationConfig{})
	if err := diffCorrelations(c, got, referenceDetectCorrelations(c, CorrelationConfig{})); err != nil {
		t.Errorf("planted: %v", err)
	}
	// The planted cases are decided as planted, not merely alike.
	wantPairs := []CorrelatedPair{{"copy", "orig", 1}, {"near99", "orig", 0.99}}
	if !reflect.DeepEqual(got.Pairs, wantPairs) {
		t.Errorf("pairs %v, want %v", got.Pairs, wantPairs)
	}
	for _, s := range []string{"near97", "twoshared", "alone", "indep"} {
		if n := numberOf(t, c, s); got.ClusterOf[n] != int32(n) || got.Weight(n) != 1 {
			t.Errorf("%s: cluster %q weight %v, want its own at 1", s, c.SourceNames[got.ClusterOf[n]], got.Weight(n))
		}
	}
	if want := [][]string{{"copy", "near99", "orig"}}; !reflect.DeepEqual(got.Clusters(), want) {
		t.Errorf("clusters %v, want %v", got.Clusters(), want)
	}

	r := rand.New(rand.NewSource(23))
	configs := []CorrelationConfig{
		{},
		{AgreementThreshold: 0.5, MinCommonItems: 1, CopierWeight: 0.4},
		{AgreementThreshold: 0.2, MinCommonItems: 2},
		{AgreementThreshold: 1, MinCommonItems: 1},
	}
	for round := 0; round < 40; round++ {
		stmts := generatedStatements(r, 1+r.Intn(300), 1+r.Intn(10))
		for _, g := range granularities {
			c := BuildClaims(stmts, g)
			for ci, cfg := range configs {
				if err := diffCorrelations(c, DetectCorrelations(c, cfg), referenceDetectCorrelations(c, cfg)); err != nil {
					t.Errorf("round %d granularity %d config %d: %v", round, g, ci, err)
				}
			}
		}
	}
}

// TestDetectCorrelationsAllocationBound: what copy detection allocates
// follows the sources and the pairs that share an item, not the items. Ten
// times the items, the same allocations (the pairwise reference allocated
// three maps' worth per item: 62 k on a scale-4 pipeline run). Measured 87
// and 88 — a tally a pair that shares an item, the tally map and five slices;
// the by-name maps of sources, clusters and weights were 11 more — and the
// ceiling is 10 % above that.
func TestDetectCorrelationsAllocationBound(t *testing.T) {
	claimsOf := func(items int) *Claims {
		r := rand.New(rand.NewSource(5))
		var stmts []rdf.Statement
		for i := 0; i < items; i++ {
			for s := 0; s < 12; s++ {
				if r.Intn(4) == 0 {
					stmts = append(stmts, stmt(fmt.Sprintf("item%05d", i), fmt.Sprintf("v%d", r.Intn(3)), fmt.Sprintf("src%02d", s), 0.8))
				}
			}
		}
		return BuildClaims(stmts, BySource)
	}
	small, large := claimsOf(400), claimsOf(4000)
	allocs := func(c *Claims) float64 {
		return testing.AllocsPerRun(5, func() { DetectCorrelations(c, CorrelationConfig{}) })
	}
	a, b := allocs(small), allocs(large)
	t.Logf("allocations: %d items %.0f, %d items %.0f", len(small.Items), a, len(large.Items), b)
	if b > a+8 {
		t.Errorf("allocations grow with the item count: %.0f at %d items, %.0f at %d", a, len(small.Items), b, len(large.Items))
	}
	if b > 97 {
		t.Errorf("%.0f allocations at %d items, want at most 97", b, len(large.Items))
	}
}

// TestDegenerateConfidences: whatever confidences the statements carry,
// BuildClaims hands every method confidences in (0, 1], and every method
// keeps its rules (checkRules) — its beliefs and source qualities finite and
// in [0, 1] among them. A confidence above 1 used to reach ADAPTIVE's ACCU as
// a vote weight and come back as NaN beliefs — through the source's
// accuracy, on items the statement was not about.
func TestDegenerateConfidences(t *testing.T) {
	forest := hierarchy.NewForest()
	forest.MustAddChain("leaf", "mid", "root")
	confs := []float64{0, -1, math.NaN(), math.Inf(1), 7, 1e-300, 1}
	sources := []string{"s1", "s2", "s3", "s4"}
	// shapes adds one item of each shape at one confidence.
	shapes := func(stmts []rdf.Statement, tag string, conf float64) []rdf.Statement {
		stmts = append(stmts, stmt("single"+tag, "v", "s1", conf))
		for _, s := range sources {
			stmts = append(stmts, stmt("agree"+tag, "v", s, conf))
			stmts = append(stmts, stmt("disagree"+tag, "v-"+s, s, conf))
		}
		return stmts
	}
	sets := map[string][]rdf.Statement{}
	var mixed []rdf.Statement
	for k, conf := range confs {
		tag := fmt.Sprintf("-%d", k)
		sets[fmt.Sprintf("conf=%v", conf)] = shapes(nil, tag, conf)
		mixed = shapes(mixed, tag, conf)
	}
	// The mixed set also has ordinary items, which one bad confidence
	// elsewhere must not reach.
	for i := 0; i < 20; i++ {
		for k, s := range sources {
			v := "true"
			if k == 3 && i%2 == 0 {
				v = "false"
			}
			mixed = append(mixed, stmt(fmt.Sprintf("plain%02d", i), v, s, 0.8))
		}
	}
	sets["mixed"] = mixed

	for name, stmts := range sets {
		for _, g := range []Granularity{BySource, BySourceExtractor} {
			c := BuildClaims(stmts, g)
			for _, it := range c.Items {
				for _, vc := range it.Values {
					for _, sc := range vc.Sources {
						if !(sc.Confidence > 0 && sc.Confidence <= 1) {
							t.Fatalf("%s: BuildClaims let confidence %v through", name, sc.Confidence)
						}
					}
				}
			}
			for _, m := range ruleMethods(forest) {
				if err := checkRules(c, m); err != nil {
					t.Errorf("%s granularity %d: %v", name, g, err)
				}
			}
		}
	}
}
