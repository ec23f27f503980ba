package fusion

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"akb/internal/hierarchy"
	"akb/internal/rdf"
)

// beliefIn is the decision's belief in a plain literal.
func beliefIn(d *Decision, value string) float64 {
	b, _, _ := d.Support(rdf.Literal(value))
	return b
}

// numberOf is the number the claims give the source of that name.
func numberOf(t *testing.T, c *Claims, source string) int {
	t.Helper()
	n, ok := c.SourceNumber(source)
	if !ok {
		t.Fatalf("no source %q among %v", source, c.SourceNames)
	}
	return n
}

// stmt builds a test statement.
func stmt(item, value, source string, conf float64) rdf.Statement {
	return rdf.S(
		rdf.T(rdf.AKB.IRI("e/"+item), rdf.AKB.IRI("attr/p"), rdf.Literal(value)),
		rdf.Provenance{Source: source, Extractor: "x"},
		conf,
	)
}

// synthWorld generates items with one true value each and claims from
// sources of differing accuracy. Wrong claims are drawn from a shared
// confusion pool so they disagree with truth but can agree with each other.
func synthWorld(t *testing.T, seed int64, nItems int, srcAcc map[string]float64) (stmts []rdf.Statement, truth map[string]string) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	truth = map[string]string{}
	sources := make([]string, 0, len(srcAcc))
	for s := range srcAcc {
		sources = append(sources, s)
	}
	// Deterministic iteration order.
	for i := 1; i < len(sources); i++ {
		for j := i; j > 0 && sources[j] < sources[j-1]; j-- {
			sources[j], sources[j-1] = sources[j-1], sources[j]
		}
	}
	for i := 0; i < nItems; i++ {
		item := fmt.Sprintf("item%03d", i)
		tv := fmt.Sprintf("true%03d", i)
		truth[item] = tv
		for _, s := range sources {
			v := tv
			if r.Float64() > srcAcc[s] {
				// Wrong claims concentrate on a per-item "popular wrong"
				// value, so inaccurate sources can form a wrong majority.
				pick := 0
				if r.Float64() > 0.8 {
					pick = 1 + r.Intn(2)
				}
				v = fmt.Sprintf("wrong%03d_%d", i, pick)
			}
			stmts = append(stmts, stmt(item, v, s, 0.8))
		}
	}
	return stmts, truth
}

func accuracyOf(t *testing.T, res *Result, truth map[string]string) float64 {
	t.Helper()
	correct := 0
	for item, tv := range truth {
		key := rdf.T(rdf.AKB.IRI("e/"+item), rdf.AKB.IRI("attr/p"), rdf.Literal("")).ItemKey()
		d := res.Decision(key)
		if d == nil {
			t.Fatalf("no decision for %s", item)
		}
		if d.Accepted(rdf.Literal(tv)) {
			correct++
		}
	}
	return float64(correct) / float64(len(truth))
}

func TestBuildClaimsGrouping(t *testing.T) {
	stmts := []rdf.Statement{
		stmt("i1", "a", "s1", 0.9),
		stmt("i1", "a", "s2", 0.7),
		stmt("i1", "b", "s3", 0.5),
		stmt("i2", "c", "s1", 0.6),
		stmt("i1", "a", "s1", 0.4), // duplicate source: keep max confidence
	}
	c := BuildClaims(stmts, BySource)
	if len(c.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(c.Items))
	}
	if c.NumClaims() != 4 {
		t.Fatalf("claims = %d, want 4", c.NumClaims())
	}
	it := c.Items[0]
	if len(it.Values) != 2 {
		t.Fatalf("i1 values = %d, want 2", len(it.Values))
	}
	va := it.Value(rdf.Literal("a"))
	if va == nil || va.SupportCount() != 2 {
		t.Fatalf("value a support wrong: %+v", va)
	}
	for _, sc := range va.Sources {
		if c.SourceNames[sc.Source] == "s1" && sc.Confidence != 0.9 {
			t.Errorf("s1 confidence = %g, want max 0.9", sc.Confidence)
		}
	}
	if len(c.SourceNames) != 3 {
		t.Errorf("sources = %v", c.SourceNames)
	}
	if n, ok := c.SourceNumber("s2"); !ok || n != 1 {
		t.Errorf("SourceNumber(s2) = %d, %v, want 1", n, ok)
	}
	if _, ok := c.SourceNumber("s0"); ok {
		t.Error("SourceNumber knows a source nobody named")
	}
	if size := unsafe.Sizeof(SourceClaim{}); size != 16 {
		t.Errorf("a SourceClaim is %d bytes, want 16", size)
	}
}

func TestBuildClaimsGranularity(t *testing.T) {
	stmts := []rdf.Statement{
		rdf.S(rdf.T(rdf.AKB.IRI("e/i"), rdf.AKB.IRI("attr/p"), rdf.Literal("v")),
			rdf.Provenance{Source: "site", Extractor: "domx"}, 0.5),
		rdf.S(rdf.T(rdf.AKB.IRI("e/i"), rdf.AKB.IRI("attr/p"), rdf.Literal("v")),
			rdf.Provenance{Source: "site", Extractor: "textx"}, 0.5),
	}
	if got := len(BuildClaims(stmts, BySource).SourceNames); got != 1 {
		t.Errorf("BySource = %d sources, want 1", got)
	}
	if got := len(BuildClaims(stmts, BySourceExtractor).SourceNames); got != 2 {
		t.Errorf("BySourceExtractor = %d sources, want 2", got)
	}
	if got := len(BuildClaims(stmts, ByExtractor).SourceNames); got != 2 {
		t.Errorf("ByExtractor = %d sources, want 2", got)
	}
}

func TestVoteMajority(t *testing.T) {
	stmts := []rdf.Statement{
		stmt("i", "right", "s1", 0.9),
		stmt("i", "right", "s2", 0.9),
		stmt("i", "wrong", "s3", 0.9),
	}
	c := BuildClaims(stmts, BySource)
	res := (&Vote{}).Fuse(c)
	d := &res.Decisions[0]
	if len(d.Truths) != 1 || d.Truths[0] != rdf.Literal("right") {
		t.Fatalf("vote picked %v", d.Truths)
	}
	if beliefIn(d, "right") <= beliefIn(d, "wrong") {
		t.Error("belief ordering wrong")
	}
}

func TestVoteDeterministicTieBreak(t *testing.T) {
	stmts := []rdf.Statement{
		stmt("i", "bbb", "s1", 0.9),
		stmt("i", "aaa", "s2", 0.9),
	}
	c := BuildClaims(stmts, BySource)
	res := (&Vote{}).Fuse(c)
	d := res.Decisions[0]
	if d.Truths[0] != rdf.Literal("aaa") {
		t.Fatalf("tie break picked %v, want lexicographically smaller", d.Truths)
	}
}

func TestWeightedVoteUsesConfidence(t *testing.T) {
	stmts := []rdf.Statement{
		stmt("i", "low", "s1", 0.1),
		stmt("i", "low", "s2", 0.1),
		stmt("i", "high", "s3", 0.9),
	}
	c := BuildClaims(stmts, BySource)
	plain := (&Vote{}).Fuse(c).Decisions[0]
	weighted := (&Vote{Weighted: true}).Fuse(c).Decisions[0]
	if plain.Truths[0] != rdf.Literal("low") {
		t.Fatalf("plain vote picked %v", plain.Truths)
	}
	if weighted.Truths[0] != rdf.Literal("high") {
		t.Fatalf("weighted vote picked %v, want high-confidence value", weighted.Truths)
	}
}

func TestAccuBeatsVoteWithBadMajority(t *testing.T) {
	srcAcc := map[string]float64{
		"good1": 0.95, "good2": 0.95,
		"bad1": 0.2, "bad2": 0.2, "bad3": 0.2,
	}
	stmts, truth := synthWorld(t, 42, 120, srcAcc)
	c := BuildClaims(stmts, BySource)
	vote := accuracyOf(t, (&Vote{}).Fuse(c), truth)
	accuRes := (&Accu{}).Fuse(c)
	accu := accuracyOf(t, accuRes, truth)
	if accu <= vote {
		t.Errorf("ACCU (%.3f) should beat VOTE (%.3f) with an inaccurate majority", accu, vote)
	}
	if accu < 0.85 {
		t.Errorf("ACCU accuracy = %.3f, want >= 0.85", accu)
	}
	// Source quality estimates must rank good sources above bad.
	if good, bad := accuRes.SourceQuality[numberOf(t, c, "good1")], accuRes.SourceQuality[numberOf(t, c, "bad1")]; good <= bad {
		t.Errorf("ACCU source quality: good1=%.3f <= bad1=%.3f", good, bad)
	}
}

func TestPopAccuRuns(t *testing.T) {
	srcAcc := map[string]float64{"a": 0.9, "b": 0.8, "c": 0.5}
	stmts, truth := synthWorld(t, 7, 80, srcAcc)
	c := BuildClaims(stmts, BySource)
	res := (&Accu{Popularity: true}).Fuse(c)
	if res.Method != "POPACCU" {
		t.Errorf("method name = %q", res.Method)
	}
	if acc := accuracyOf(t, res, truth); acc < 0.75 {
		t.Errorf("POPACCU accuracy = %.3f, want >= 0.75", acc)
	}
}

func TestMultiTruthAcceptsMultipleValues(t *testing.T) {
	// A non-functional item with two true values, each asserted by three
	// sources, plus one noise value from a single source.
	var stmts []rdf.Statement
	for _, s := range []string{"s1", "s2", "s3"} {
		stmts = append(stmts, stmt("i", "truthA", s, 0.9))
	}
	for _, s := range []string{"s4", "s5", "s6"} {
		stmts = append(stmts, stmt("i", "truthB", s, 0.9))
	}
	stmts = append(stmts, stmt("i", "noise", "s7", 0.9))
	// Background items let sources prove themselves.
	for i := 0; i < 30; i++ {
		for _, s := range []string{"s1", "s2", "s3", "s4", "s5", "s6"} {
			stmts = append(stmts, stmt(fmt.Sprintf("bg%d", i), fmt.Sprintf("v%d", i), s, 0.9))
		}
		stmts = append(stmts, stmt(fmt.Sprintf("bg%d", i), fmt.Sprintf("junk%d", i), "s7", 0.9))
	}
	c := BuildClaims(stmts, BySource)
	res := (&MultiTruth{}).Fuse(c)
	key := rdf.T(rdf.AKB.IRI("e/i"), rdf.AKB.IRI("attr/p"), rdf.Literal("")).ItemKey()
	d := res.Decision(key)
	if !d.Accepted(rdf.Literal("truthA")) || !d.Accepted(rdf.Literal("truthB")) {
		t.Fatalf("multi-truth missed a true value: %v (beliefs %v)", d.Truths, d.Belief)
	}
	if d.Accepted(rdf.Literal("noise")) {
		t.Fatalf("multi-truth accepted noise: %v", d.Truths)
	}
	// Single-truth ACCU structurally cannot accept both.
	ad := (&Accu{}).Fuse(c).Decision(key)
	if len(ad.Truths) != 1 {
		t.Fatalf("ACCU returned %d truths, want 1", len(ad.Truths))
	}
}

func TestHierarchicalResolvesPaperExample(t *testing.T) {
	forest := hierarchy.NewForest()
	forest.MustAddChain("Wuhan", "Hubei", "China")
	forest.MustAddChain("Beijing2", "Hebei2", "China2")
	// birth place: Wuhan x2, China x2, Beijing2 x3. Flat vote picks
	// Beijing2 (3 > 2 > 2); hierarchy-aware folding gives Wuhan 4 votes.
	var stmts []rdf.Statement
	stmts = append(stmts,
		stmt("fang", "Wuhan", "s1", 0.9),
		stmt("fang", "Wuhan", "s2", 0.9),
		stmt("fang", "China", "s3", 0.9),
		stmt("fang", "China", "s4", 0.9),
		stmt("fang", "Beijing2", "s5", 0.9),
		stmt("fang", "Beijing2", "s6", 0.9),
		stmt("fang", "Beijing2", "s7", 0.9),
	)
	c := BuildClaims(stmts, BySource)
	key := c.Items[0].Key()

	flat := (&Vote{}).Fuse(c).Decision(key)
	if flat.Truths[0] != rdf.Literal("Beijing2") {
		t.Fatalf("flat vote picked %v, expected Beijing2", flat.Truths)
	}

	h := &Hierarchical{Base: &Vote{}, Forest: forest}
	res := h.Fuse(c)
	d := res.Decision(key)
	if !d.Accepted(rdf.Literal("Wuhan")) {
		t.Fatalf("hierarchical vote picked %v, want Wuhan", d.Truths)
	}
	// The claimed generalisation "China" is also true.
	if !d.Accepted(rdf.Literal("China")) {
		t.Fatalf("generalisation China not accepted: %v", d.Truths)
	}
	if d.Accepted(rdf.Literal("Hubei")) {
		t.Fatal("unclaimed intermediate Hubei must not be invented")
	}
	if res.Method != "VOTE+hier" {
		t.Errorf("method name = %q", res.Method)
	}
}

func TestDetectCorrelations(t *testing.T) {
	var stmts []rdf.Statement
	r := rand.New(rand.NewSource(3))
	// indep1, indep2: independent accurate sources. copyA and its two
	// copiers share identical claim sets including errors.
	for i := 0; i < 40; i++ {
		item := fmt.Sprintf("i%d", i)
		tv := fmt.Sprintf("t%d", i)
		stmts = append(stmts, stmt(item, tv, "indep1", 0.8))
		if r.Float64() < 0.8 {
			stmts = append(stmts, stmt(item, tv, "indep2", 0.8))
		} else {
			stmts = append(stmts, stmt(item, "x"+tv, "indep2", 0.8))
		}
		copied := tv
		if r.Float64() < 0.4 {
			copied = "wrong" + tv
		}
		for _, s := range []string{"copyA", "copyB", "copyC"} {
			stmts = append(stmts, stmt(item, copied, s, 0.8))
		}
	}
	c := BuildClaims(stmts, BySource)
	corr := DetectCorrelations(c, DefaultCorrelationConfig())
	clusters := corr.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("clusters = %v, want exactly the copier cluster", clusters)
	}
	if len(clusters[0]) != 3 {
		t.Fatalf("copier cluster = %v, want 3 members", clusters[0])
	}
	if w := corr.Weight(numberOf(t, c, "indep1")); w != 1 {
		t.Errorf("independent source discounted: %g", w)
	}
	full := 0
	for _, s := range clusters[0] {
		if corr.Weight(numberOf(t, c, s)) == 1 {
			full++
		}
	}
	if full != 1 {
		t.Errorf("cluster has %d full-weight members, want 1", full)
	}
}

func TestCorrelationDiscountFixesCopiedMajority(t *testing.T) {
	// Copiers replicate a mediocre source; two good independent sources
	// disagree with the copy cluster on the items the original got wrong.
	r := rand.New(rand.NewSource(9))
	var stmts []rdf.Statement
	truth := map[string]string{}
	for i := 0; i < 60; i++ {
		item := fmt.Sprintf("i%02d", i)
		tv := fmt.Sprintf("t%02d", i)
		truth[item] = tv
		for _, s := range []string{"good1", "good2"} {
			v := tv
			if r.Float64() > 0.95 {
				v = "g-wrong" + tv
			}
			stmts = append(stmts, stmt(item, v, s, 0.8))
		}
		copied := tv
		if r.Float64() > 0.6 {
			copied = "c-wrong" + tv
		}
		for _, s := range []string{"orig", "copy1", "copy2"} {
			stmts = append(stmts, stmt(item, copied, s, 0.8))
		}
	}
	c := BuildClaims(stmts, BySource)
	plain := accuracyOf(t, (&Vote{}).Fuse(c), truth)
	corr := DetectCorrelations(c, DefaultCorrelationConfig())
	discounted := accuracyOf(t, (&Vote{Discount: corr}).Fuse(c), truth)
	if discounted <= plain {
		t.Errorf("correlation discount did not help: plain=%.3f discounted=%.3f", plain, discounted)
	}
	if discounted < 0.9 {
		t.Errorf("discounted vote accuracy = %.3f, want >= 0.9", discounted)
	}
}

func TestFullMethodComposes(t *testing.T) {
	forest := hierarchy.NewForest()
	forest.MustAddChain("cityX", "regionX", "countryX")
	srcAcc := map[string]float64{"a": 0.9, "b": 0.85, "c": 0.5}
	stmts, truth := synthWorld(t, 11, 60, srcAcc)
	// Add a hierarchical item.
	stmts = append(stmts,
		stmt("hier", "cityX", "a", 0.9),
		stmt("hier", "countryX", "b", 0.9),
	)
	c := BuildClaims(stmts, BySource)
	f := &Full{Forest: forest}
	res := f.Fuse(c)
	if res.Method != "FULL(multi+conf+corr+hier)" {
		t.Errorf("name = %q", res.Method)
	}
	if acc := accuracyOf(t, res, truth); acc < 0.8 {
		t.Errorf("FULL accuracy = %.3f", acc)
	}
	key := rdf.T(rdf.AKB.IRI("e/hier"), rdf.AKB.IRI("attr/p"), rdf.Literal("")).ItemKey()
	d := res.Decision(key)
	if !d.Accepted(rdf.Literal("cityX")) || !d.Accepted(rdf.Literal("countryX")) {
		t.Errorf("hierarchical item decisions = %v", d.Truths)
	}
}

func TestAllMethodsInvariants(t *testing.T) {
	forest := hierarchy.NewForest()
	forest.MustAddChain("leaf", "mid", "root")
	srcAcc := map[string]float64{"a": 0.9, "b": 0.7, "c": 0.5, "d": 0.3}
	stmts, _ := synthWorld(t, 5, 40, srcAcc)
	c := BuildClaims(stmts, BySource)
	for _, m := range AllMethods(forest) {
		res := m.Fuse(c)
		if len(res.Decisions) != len(c.Items) {
			t.Errorf("%s: %d decisions for %d items", m.Name(), len(res.Decisions), len(c.Items))
		}
		for i, d := range res.Decisions {
			if d.Item != c.Items[i] && d.Item.Key() != c.Items[i].Key() {
				t.Errorf("%s: decision %d is about %s, item %d is %s", m.Name(), i, d.Item.Key(), i, c.Items[i].Key())
			}
			if len(d.Truths) == 0 {
				t.Errorf("%s: no truth for %s", m.Name(), d.Item.Key())
			}
			if len(d.Belief) != len(d.Item.Values) {
				t.Errorf("%s: %d beliefs for the %d values of %s", m.Name(), len(d.Belief), len(d.Item.Values), d.Item.Key())
			}
			for k, b := range d.Belief {
				if b < 0 || b > 1.0000001 {
					t.Errorf("%s: belief %g out of range for %v", m.Name(), b, d.Item.Values[k].Value)
				}
			}
			// Every accepted value must have been claimed.
			for _, tr := range d.Truths {
				if d.Item.Value(tr) == nil {
					// Hierarchy expansion may add claimed ancestors, which
					// exist in the original item; here items are flat so
					// everything must be claimed.
					t.Errorf("%s: accepted unclaimed value %v", m.Name(), tr)
				}
			}
		}
	}
}

func TestMethodNames(t *testing.T) {
	forest := hierarchy.NewForest()
	names := map[string]bool{}
	for _, m := range AllMethods(forest) {
		n := m.Name()
		if n == "" || names[n] {
			t.Errorf("duplicate or empty method name %q", n)
		}
		names[n] = true
	}
}

// Property: BuildClaims is deterministic and preserves every (item, value,
// source) assertion exactly once.
func TestBuildClaimsInvariantsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(n%50) + 1
		var stmts []rdf.Statement
		type key struct{ item, value, source string }
		want := map[key]bool{}
		for i := 0; i < k; i++ {
			item := fmt.Sprintf("i%d", r.Intn(8))
			value := fmt.Sprintf("v%d", r.Intn(4))
			source := fmt.Sprintf("s%d", r.Intn(5))
			stmts = append(stmts, stmt(item, value, source, 0.5+0.4*r.Float64()))
			want[key{item, value, source}] = true
		}
		a := BuildClaims(stmts, BySource)
		b := BuildClaims(stmts, BySource)
		if a.NumClaims() != len(want) || b.NumClaims() != len(want) {
			return false
		}
		got := map[key]bool{}
		for _, it := range a.Items {
			for _, vc := range it.Values {
				for _, sc := range vc.Sources {
					got[key{extractLocal(it.Subject.Value), vc.Value.Value, a.SourceNames[sc.Source]}] = true
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for kk := range want {
			if !got[kk] {
				return false
			}
		}
		// Determinism of ordering.
		for i := range a.Items {
			if a.Items[i].Key() != b.Items[i].Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func extractLocal(iri string) string {
	i := strings.LastIndexByte(iri, '/')
	return strings.ReplaceAll(iri[i+1:], "_", " ")
}

// panicOf runs f and returns what it panicked with, "" when it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestMisnumberedSourcesAreRefused: a source is a number, and a number that
// names nobody — or somebody else — is refused with a message before any
// method's loop reads it. By name, a source absent from SourceNames was
// counted as SourceNames[0] by MULTI (whose sensitivity converged to 0.95
// without a claim of its own) and a discount detected on other claims
// answered 1 for everybody.
func TestMisnumberedSourcesAreRefused(t *testing.T) {
	forest := hierarchy.NewForest()
	forest.MustAddChain("leaf", "mid", "root")
	methods := append(append(AllMethods(forest), FactFinders()...), &Adaptive{})
	discounted := func(d *Correlations) []Method {
		return []Method{&Vote{Discount: d}, &Accu{Discount: d}, &MultiTruth{Discount: d}}
	}

	// Two sources named, a third claiming.
	handBuilt := func(stray int32) *Claims {
		c := &Claims{SourceNames: []string{"a", "b"}}
		for i := 0; i < 6; i++ {
			it := &Item{Subject: rdf.AKB.IRI(fmt.Sprintf("e/%d", i)), Predicate: rdf.AKB.IRI("attr/p")}
			it.Values = []*ValueClaims{
				{Value: rdf.Literal("v"), Sources: []SourceClaim{{Source: 1, Confidence: 0.8}}},
				{Value: rdf.Literal("w"), Sources: []SourceClaim{{Source: stray, Confidence: 0.8}}},
			}
			c.Items = append(c.Items, it)
		}
		return c
	}
	for _, stray := range []int32{2, -1} {
		c := handBuilt(stray)
		for _, m := range methods {
			if msg := panicOf(func() { m.Fuse(c) }); !strings.Contains(msg, "the claims name 2 sources") {
				t.Errorf("%s on a claim by source %d: panic %q, want the refusal", m.Name(), stray, msg)
			}
		}
		if msg := panicOf(func() { DetectCorrelations(c, CorrelationConfig{}) }); !strings.Contains(msg, "the claims name 2 sources") {
			t.Errorf("DetectCorrelations on a claim by source %d: panic %q, want the refusal", stray, msg)
		}
	}
	for _, m := range methods {
		if msg := panicOf(func() { m.Fuse(handBuilt(0)) }); msg != "" {
			t.Errorf("%s on well-numbered hand-built claims: panic %q", m.Name(), msg)
		}
	}

	// A discount read by number belongs to the claims it was detected on.
	c := BuildClaims([]rdf.Statement{stmt("i", "v", "s1", 0.8), stmt("i", "w", "s2", 0.8)}, BySource)
	others := BuildClaims([]rdf.Statement{stmt("i", "v", "s1", 0.8), stmt("i", "w", "s3", 0.8)}, BySource)
	for _, m := range discounted(DetectCorrelations(others, CorrelationConfig{})) {
		if msg := panicOf(func() { m.Fuse(c) }); !strings.Contains(msg, "Discount detected on sources") {
			t.Errorf("%s with a discount detected on other sources: panic %q, want the refusal", m.Name(), msg)
		}
	}
	for _, m := range discounted(DetectCorrelations(c, CorrelationConfig{})) {
		if msg := panicOf(func() { m.Fuse(c) }); msg != "" {
			t.Errorf("%s with its own claims' discount: panic %q", m.Name(), msg)
		}
	}
	// The fold and ADAPTIVE's split pass the source names through, so a
	// discount detected on the whole claims serves every part of them.
	corr := DetectCorrelations(c, CorrelationConfig{})
	for _, m := range []Method{
		&Hierarchical{Base: &MultiTruth{Discount: corr}, Forest: forest},
		&Adaptive{Single: &Accu{Discount: corr}, Multi: &MultiTruth{Discount: corr}},
	} {
		if msg := panicOf(func() { m.Fuse(c) }); msg != "" {
			t.Errorf("%s: panic %q", m.Name(), msg)
		}
	}
}
