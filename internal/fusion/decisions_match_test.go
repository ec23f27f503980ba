package fusion

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"akb/internal/hierarchy"
	"akb/internal/rdf"
)

// nastyForest has a chain (leaf ⊂ mid ⊂ root), a sibling branch under its
// middle (twig ⊂ mid), and a second tree whose leaves sort before their
// root (aa, bb ⊂ zland) — the order in which ClusterCompatible puts the root
// with the first leaf only, so the second implies a generalisation that was
// folded into another value.
func nastyForest() *hierarchy.Forest {
	f := hierarchy.NewForest()
	f.MustAddChain("leaf", "mid", "root")
	f.MustAddChain("twig", "mid")
	f.MustAddChain("aa", "zland")
	f.MustAddChain("bb", "zland")
	return f
}

// nastyStatements extends reference_match_test.go's generated statements
// (duplicate assertions, unscored ones, one source under two extractors,
// literals, IRIs and blanks of one spelling as values) with what the
// decisions' shape is sensitive to: items over the forest — chains, sibling
// clusters where a generalisation is a candidate of its own (claimed by one
// weak source, so a multi-truth base rejects it and the hierarchy then
// implies it), a forest name claimed as a literal and as an IRI — items with
// one value, and items whose values differ in kind only.
func nastyStatements(r *rand.Rand) []rdf.Statement {
	stmts := generatedStatements(r, 1+r.Intn(300), 1+r.Intn(10))
	sources := []string{"host0", "host1", "host2", "host3", "host6", "host7"}
	confs := []float64{0.3, 0.55, 0.8, 1}
	claim := func(entity string, value rdf.Term, source string, conf float64) {
		stmts = append(stmts, rdf.S(
			rdf.T(rdf.AKB.IRI("e/"+entity), rdf.AKB.IRI("attr/place"), value),
			rdf.Provenance{Source: source, Extractor: "e0"}, conf))
	}
	places := []string{"leaf", "mid", "root", "twig", "aa", "bb", "zland", "elsewhere"}
	for i := 0; i < 12; i++ {
		entity := fmt.Sprintf("h%02d", i)
		switch i % 4 {
		case 0: // any mix of forest values, each by any mix of sources
			for _, p := range places {
				if r.Intn(2) == 0 {
					continue
				}
				for _, s := range sources {
					if r.Intn(3) == 0 {
						claim(entity, rdf.Literal(p), s, confs[r.Intn(len(confs))])
					}
				}
			}
		case 1: // sibling cluster: both leaves well supported, the generalisation by one weak source
			for _, s := range sources[:3] {
				claim(entity, rdf.Literal("leaf"), s, 0.8)
				claim(entity, rdf.Literal("twig"), s, 0.8)
			}
			claim(entity, rdf.Literal("mid"), sources[3+r.Intn(3)], 0.3)
		case 2: // pure chain, and a leaf of the other tree next to its folded root
			for k, p := range []string{"leaf", "mid", "root", "aa", "bb", "zland"} {
				claim(entity, rdf.Literal(p), sources[(k+r.Intn(2))%len(sources)], confs[r.Intn(len(confs))])
				claim(entity, rdf.Literal(p), sources[(k+2)%len(sources)], confs[r.Intn(len(confs))])
			}
		case 3: // a forest name claimed as an IRI too, which is no value of the forest, beside its ancestors
			claim(entity, rdf.IRI("leaf"), sources[0], 0.8)
			claim(entity, rdf.Literal("leaf"), sources[1], 0.8)
			claim(entity, rdf.Literal("mid"), sources[2], 0.55)
			claim(entity, rdf.Literal("root"), sources[r.Intn(len(sources))], 0.55)
		}
	}
	for i := 0; i < 5; i++ {
		claim(fmt.Sprintf("solo%d", i), rdf.Literal("only"), sources[r.Intn(len(sources))], confs[r.Intn(len(confs))])
	}
	for i := 0; i < 4; i++ {
		entity := fmt.Sprintf("kinds%d", i)
		for _, v := range []rdf.Term{rdf.Literal("c"), rdf.IRI("c"), rdf.Blank("c"), rdf.Literal("d")} {
			for _, s := range sources {
				if r.Intn(2) == 0 {
					claim(entity, v, s, confs[r.Intn(len(confs))])
				}
			}
		}
	}
	return stmts
}

// withWorkers sets the fan-out width on the methods that have one.
func withWorkers(m Method, w int) Method {
	switch m := m.(type) {
	case *Vote:
		m.Workers = w
	case *Accu:
		m.Workers = w
	case *MultiTruth:
		m.Workers = w
	case *Full:
		m.Workers = w
	case *Hierarchical:
		withWorkers(m.Base, w)
	case *Adaptive:
		if m.Single != nil {
			withWorkers(m.Single, w)
		}
		if m.Multi != nil {
			withWorkers(m.Multi, w)
		}
	}
	return m
}

// TestDecisionsMatchReference holds every method's positional decisions to
// the string-keyed references: decision i about item i, the same truths,
// and every (item, value) belief, implied belief and source quality equal
// to the bit, at 1 and 4 workers, on nasty claims.
func TestDecisionsMatchReference(t *testing.T) {
	forest := nastyForest()
	methods := func() []Method {
		ms := append(AllMethods(forest), FactFinders()...)
		for _, kind := range []FactFinderKind{KindSums, KindAverageLog} {
			ms = append(ms, &FactFinder{Kind: kind, Weighted: true})
		}
		return append(ms,
			&Vote{Weighted: true}, &MultiTruth{AcceptThreshold: 0.9},
			&Accu{Weighted: true}, &Accu{Popularity: true, Weighted: true},
			&Hierarchical{Base: &Vote{}, Forest: forest},
			&Hierarchical{Base: &Accu{}, Forest: forest},
			&Full{Forest: forest, CorrCfg: CorrelationConfig{AgreementThreshold: 0.5, MinCommonItems: 1}},
			&Adaptive{},
			&Adaptive{Threshold: 0.6, Single: &Hierarchical{Base: &Accu{}, Forest: forest}, Multi: &Full{Forest: forest}},
		)
	}
	var implied, impliedRejected, oneValue int
	r := rand.New(rand.NewSource(25))
	for round := 0; round < 24; round++ {
		stmts := nastyStatements(r)
		for _, g := range granularities {
			c := BuildClaims(stmts, g)
			for mi := range methods() {
				want := referenceFuse(withWorkers(methods()[mi], 1), c)
				for _, workers := range []int{1, 4} {
					m := withWorkers(methods()[mi], workers)
					got := m.Fuse(c)
					if err := diffReference(c, got, want); err != nil {
						t.Fatalf("round %d granularity %d %s workers %d: %v", round, g, m.Name(), workers, err)
					}
					for i := range got.Decisions {
						d := &got.Decisions[i]
						if len(d.Item.Values) == 1 {
							oneValue++
						}
						for _, imp := range d.Implied {
							implied++
							if !d.Accepted(imp.Value) {
								t.Fatalf("%s: %s implies %v and does not accept it", m.Name(), d.Item.Key(), imp.Value)
							}
							if d.Item.Value(imp.Value) != nil {
								impliedRejected++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d implied truths, %d of them candidates the base method rejected, %d one-value decisions", implied, impliedRejected, oneValue)
	if implied == 0 || impliedRejected == 0 || implied == impliedRejected || oneValue == 0 {
		t.Error("the claims miss a case: want implied truths both folded away and rejected as candidates, and one-value items")
	}
}

// TestImpliedBeliefTakesPrecedence pins the quirk the goldens rest on: a
// generalisation that is a candidate of its own (its cluster has sibling
// branches), rejected by the base method and then implied by an accepted
// descendant, is believed as that descendant is — in Belief, in Implied and
// through Support alike.
func TestImpliedBeliefTakesPrecedence(t *testing.T) {
	var stmts []rdf.Statement
	for _, s := range []string{"s1", "s2", "s3"} {
		stmts = append(stmts, stmt("i", "leaf", s, 0.8), stmt("i", "twig", s, 0.8))
	}
	stmts = append(stmts, stmt("i", "mid", "s4", 0.3))
	c := BuildClaims(stmts, BySource)
	base := (&MultiTruth{Weighted: true}).Fuse(c).Decisions[0]
	mid, leaf := rdf.Literal("mid"), rdf.Literal("leaf")
	if base.Accepted(mid) || !base.Accepted(leaf) {
		t.Fatalf("the base method accepts %v: want leaf and not mid", base.Truths)
	}
	own, _, _ := base.Support(mid)
	d := (&Hierarchical{Base: &MultiTruth{Weighted: true}, Forest: nastyForest()}).Fuse(c).Decisions[0]
	if !d.Accepted(mid) {
		t.Fatalf("mid is not implied: %v", d.Truths)
	}
	want, _, _ := d.Support(leaf)
	got, sources, _ := d.Support(mid)
	k := slices.IndexFunc(d.Item.Values, func(vc *ValueClaims) bool { return vc.Value == mid })
	if got != want || d.Belief[k] != want || len(d.Implied) != 1 || d.Implied[0] != (Implied{Value: mid, Belief: want, Sources: 1}) {
		t.Errorf("mid is believed at %v (Belief %v, Implied %v), want leaf's %v", got, d.Belief[k], d.Implied, want)
	}
	if got == own {
		t.Errorf("mid keeps the belief the base method gave it (%v): the case does not tell the two apart", own)
	}
	if sources != 1 {
		t.Errorf("mid has %d sources, want the 1 that claimed it", sources)
	}
}

// TestImpliedTruthReportsItsClaimants: a generalisation the fold gave to a
// descendant is not among the values of the item the decision was made
// over, and used to be served as if nobody had claimed it. It reports the
// sources that claimed it before the fold.
func TestImpliedTruthReportsItsClaimants(t *testing.T) {
	stmts := []rdf.Statement{
		stmt("i", "leaf", "s1", 0.8), stmt("i", "leaf", "s2", 0.8),
		stmt("i", "mid", "s1", 0.8), stmt("i", "mid", "s3", 0.8), stmt("i", "mid", "s4", 0.8),
		stmt("i", "root", "s5", 0.8),
		stmt("j", "leaf", "s1", 0.8), stmt("j", "mid", "s2", 0.8), stmt("j", "mid", "s3", 0.8),
		stmt("j", "mid", "s2", 0.6),
	}
	c := BuildClaims(stmts, BySource)
	for _, m := range []Method{
		&Hierarchical{Base: &MultiTruth{}, Forest: nastyForest()},
		&Hierarchical{Base: &Vote{}, Forest: nastyForest()},
		&Full{Forest: nastyForest()},
	} {
		res := m.Fuse(c)
		d := res.Decision(stmts[0].ItemKey())
		if d.Item.Value(rdf.Literal("mid")) != nil {
			t.Fatalf("%s: the fold left mid among the item's values", m.Name())
		}
		// leaf is the chain's representative: it counts the five sources
		// the fold gave it, its own two among them.
		for value, want := range map[string]int{"leaf": 5, "mid": 3, "root": 1} {
			if _, sources, ok := d.Support(rdf.Literal(value)); !ok || sources != want || !d.Accepted(rdf.Literal(value)) {
				t.Errorf("%s: %s has %d sources (known %v, truths %v), want %d", m.Name(), value, sources, ok, d.Truths, want)
			}
		}
		d = res.Decision(stmts[6].ItemKey())
		if _, sources, ok := d.Support(rdf.Literal("mid")); !ok || sources != 2 {
			t.Errorf("%s: mid, claimed by s3 and twice by s2, has %d sources (known %v), want 2", m.Name(), sources, ok)
		}
	}
}
