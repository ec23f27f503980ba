package fusion

import (
	"fmt"
	"testing"

	"akb/internal/rdf"
)

func TestFactFinderNames(t *testing.T) {
	want := map[FactFinderKind]string{
		KindSums:        "SUMS",
		KindAverageLog:  "AVGLOG",
		KindTruthFinder: "TRUTHFINDER",
	}
	for kind, name := range want {
		ff := &FactFinder{Kind: kind}
		if ff.Name() != name {
			t.Errorf("name = %q, want %q", ff.Name(), name)
		}
		ffw := &FactFinder{Kind: kind, Weighted: true}
		if ffw.Name() != name+"+conf" {
			t.Errorf("weighted name = %q", ffw.Name())
		}
	}
}

func TestFactFindersRecoverTruth(t *testing.T) {
	srcAcc := map[string]float64{
		"good1": 0.95, "good2": 0.9, "mid": 0.7, "bad": 0.3,
	}
	stmts, truth := synthWorld(t, 13, 100, srcAcc)
	c := BuildClaims(stmts, BySource)
	for _, m := range FactFinders() {
		res := m.Fuse(c)
		acc := accuracyOf(t, res, truth)
		if acc < 0.8 {
			t.Errorf("%s accuracy = %.3f, want >= 0.8", m.Name(), acc)
		}
		// Trust estimates must rank the good source above the bad one.
		if good, bad := res.SourceQuality[numberOf(t, c, "good1")], res.SourceQuality[numberOf(t, c, "bad")]; good <= bad {
			t.Errorf("%s: good1 trust %.3f <= bad trust %.3f", m.Name(), good, bad)
		}
	}
}

func TestFactFinderSingleTruth(t *testing.T) {
	stmts := []rdf.Statement{
		stmt("i", "a", "s1", 0.9),
		stmt("i", "b", "s2", 0.9),
		stmt("i", "b", "s3", 0.9),
	}
	c := BuildClaims(stmts, BySource)
	for _, m := range FactFinders() {
		res := m.Fuse(c)
		d := res.Decisions[0]
		if len(d.Truths) != 1 {
			t.Errorf("%s: %d truths, want 1", m.Name(), len(d.Truths))
		}
		if d.Truths[0] != rdf.Literal("b") {
			t.Errorf("%s picked %v, want b", m.Name(), d.Truths)
		}
	}
}

func TestWeightedTruthFinderUsesConfidence(t *testing.T) {
	stmts := []rdf.Statement{
		stmt("i", "low", "s1", 0.05),
		stmt("i", "low", "s2", 0.05),
		stmt("i", "high", "s3", 0.95),
	}
	c := BuildClaims(stmts, BySource)
	plain := (&FactFinder{Kind: KindTruthFinder}).Fuse(c)
	weighted := (&FactFinder{Kind: KindTruthFinder, Weighted: true}).Fuse(c)
	if plain.Decisions[0].Truths[0] != rdf.Literal("low") {
		t.Fatalf("plain TruthFinder picked %v", plain.Decisions[0].Truths)
	}
	if weighted.Decisions[0].Truths[0] != rdf.Literal("high") {
		t.Fatalf("weighted TruthFinder picked %v", weighted.Decisions[0].Truths)
	}
}

func TestEstimateFunctionality(t *testing.T) {
	var stmts []rdf.Statement
	// "director": 20 items, every item one corroborated value.
	for i := 0; i < 20; i++ {
		e := fmt.Sprintf("f%d", i)
		v := fmt.Sprintf("dir%d", i)
		stmts = append(stmts,
			rdf.S(rdf.T(rdf.AKB.IRI(e), rdf.AKB.IRI("attr/director"), rdf.Literal(v)), rdf.Provenance{Source: "s1"}, 0.9),
			rdf.S(rdf.T(rdf.AKB.IRI(e), rdf.AKB.IRI("attr/director"), rdf.Literal(v)), rdf.Provenance{Source: "s2"}, 0.9),
			// One-off noise that corroboration must ignore.
			rdf.S(rdf.T(rdf.AKB.IRI(e), rdf.AKB.IRI("attr/director"), rdf.Literal(v+"x")), rdf.Provenance{Source: "s3"}, 0.3),
		)
	}
	// "producer": 20 items, three corroborated values each.
	for i := 0; i < 20; i++ {
		e := fmt.Sprintf("f%d", i)
		for k := 0; k < 3; k++ {
			v := fmt.Sprintf("prod%d_%d", i, k)
			stmts = append(stmts,
				rdf.S(rdf.T(rdf.AKB.IRI(e), rdf.AKB.IRI("attr/producer"), rdf.Literal(v)), rdf.Provenance{Source: "s1"}, 0.9),
				rdf.S(rdf.T(rdf.AKB.IRI(e), rdf.AKB.IRI("attr/producer"), rdf.Literal(v)), rdf.Provenance{Source: "s2"}, 0.9),
			)
		}
	}
	c := BuildClaims(stmts, BySource)
	fn := EstimateFunctionality(c, 2)
	dirKey := rdf.AKB.IRI("attr/director").Key()
	prodKey := rdf.AKB.IRI("attr/producer").Key()
	if d := fn.Degree(dirKey); d != 1 {
		t.Errorf("director functionality = %g, want 1", d)
	}
	if d := fn.Degree(prodKey); d < 0.3 || d > 0.4 {
		t.Errorf("producer functionality = %g, want ~1/3", d)
	}
	if fn.Degree("unknown") != 1 {
		t.Error("unknown predicate should default to functional")
	}
	rep := fn.Report()
	if len(rep) != 2 || rep[0].Degree < rep[1].Degree {
		t.Errorf("report = %v", rep)
	}
}

func TestAdaptiveRoutesByFunctionality(t *testing.T) {
	var stmts []rdf.Statement
	// Functional predicate with a noisy minority: single-truth wins.
	for i := 0; i < 30; i++ {
		e := fmt.Sprintf("e%d", i)
		v := fmt.Sprintf("v%d", i)
		stmts = append(stmts,
			rdf.S(rdf.T(rdf.AKB.IRI(e), rdf.AKB.IRI("attr/capital"), rdf.Literal(v)), rdf.Provenance{Source: "s1"}, 0.9),
			rdf.S(rdf.T(rdf.AKB.IRI(e), rdf.AKB.IRI("attr/capital"), rdf.Literal(v)), rdf.Provenance{Source: "s2"}, 0.9),
			rdf.S(rdf.T(rdf.AKB.IRI(e), rdf.AKB.IRI("attr/capital"), rdf.Literal(v+"-wrong")), rdf.Provenance{Source: "s4"}, 0.4),
		)
	}
	// Non-functional predicate with two corroborated values per item.
	for i := 0; i < 30; i++ {
		e := fmt.Sprintf("e%d", i)
		for k := 0; k < 2; k++ {
			v := fmt.Sprintf("lang%d_%d", i, k)
			stmts = append(stmts,
				rdf.S(rdf.T(rdf.AKB.IRI(e), rdf.AKB.IRI("attr/language"), rdf.Literal(v)), rdf.Provenance{Source: "s1"}, 0.9),
				rdf.S(rdf.T(rdf.AKB.IRI(e), rdf.AKB.IRI("attr/language"), rdf.Literal(v)), rdf.Provenance{Source: "s3"}, 0.9),
			)
		}
	}
	c := BuildClaims(stmts, BySource)
	res := (&Adaptive{}).Fuse(c)
	if len(res.Decisions) != len(c.Items) {
		t.Fatalf("decisions = %d, want %d", len(res.Decisions), len(c.Items))
	}
	// Non-functional items must keep both corroborated values.
	langKey := rdf.T(rdf.AKB.IRI("e0"), rdf.AKB.IRI("attr/language"), rdf.Term{}).ItemKey()
	if d := res.Decision(langKey); len(d.Truths) != 2 {
		t.Errorf("language item truths = %v, want both values", d.Truths)
	}
	// Functional items must keep exactly one.
	capKey := rdf.T(rdf.AKB.IRI("e0"), rdf.AKB.IRI("attr/capital"), rdf.Term{}).ItemKey()
	if d := res.Decision(capKey); len(d.Truths) != 1 || d.Truths[0] != rdf.Literal("v0") {
		t.Errorf("capital item truths = %v, want [v0]", d.Truths)
	}
	if res.Method != "ADAPTIVE(func-degree)" {
		t.Errorf("name = %q", res.Method)
	}
	// A half rates the sources that claim in it: s4, always wrong and only
	// on functional items, is ACCU's to rate, not the multi-truth half's,
	// which never saw it and would report its untouched prior, 0.8.
	if q := res.SourceQuality[numberOf(t, c, "s4")]; q >= 0.5 {
		t.Errorf("quality of s4, wrong on every item it claims, is %v, want below 0.5", q)
	}
	if good, s3 := res.SourceQuality[numberOf(t, c, "s1")], res.SourceQuality[numberOf(t, c, "s3")]; good < 0.9 || s3 < 0.9 {
		t.Errorf("quality of s1 is %v and of s3 %v, want both at 0.9 or above", good, s3)
	}
}

func TestAdaptiveEmptyClaims(t *testing.T) {
	res := (&Adaptive{}).Fuse(&Claims{})
	if len(res.Decisions) != 0 {
		t.Fatal("decisions from empty claims")
	}
}
