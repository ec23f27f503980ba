package eval_test

import (
	"context"
	"fmt"
	"testing"

	"akb/internal/core"
	"akb/internal/eval"
	"akb/internal/extract"
	"akb/internal/fusion"
	"akb/internal/kb"
	"akb/internal/rdf"
)

// referenceScoreFusion is ScoreFusion as it was: the decisions walked in map
// order, every one of them resolving its entity and attribute through a map
// of names and allocating its own coverage slice.
func referenceScoreFusion(w *kb.World, res *fusion.Result) eval.Metrics {
	byKey := make(map[string]*fusion.Decision, len(res.Decisions))
	for i := range res.Decisions {
		byKey[res.Decisions[i].Item.Key()] = &res.Decisions[i]
	}
	var m eval.Metrics
	names := extract.Names{}
	for _, d := range byKey {
		entity := names.Of(d.Item.Subject)
		attr := names.Of(d.Item.Predicate)
		e, ok := w.Entity(entity)
		if !ok {
			m.FP += len(d.Truths)
			continue
		}
		trueLeaves := e.TrueValues(attr)
		covered := make([]bool, len(trueLeaves))
		for _, t := range d.Truths {
			v := t.Value
			if w.IsTrue(e, attr, v) {
				m.TP++
				for i, leaf := range trueLeaves {
					if leaf == v || w.Hier.IsAncestor(v, leaf) {
						covered[i] = true
					}
				}
			} else {
				m.FP++
			}
		}
		for _, c := range covered {
			if !c {
				m.FN++
			}
		}
	}
	return m
}

// referenceScoreStatements is ScoreStatements as it was, a copy of every
// statement taken on the way.
func referenceScoreStatements(w *kb.World, stmts []rdf.Statement) eval.Metrics {
	var m eval.Metrics
	names := extract.Names{}
	for _, s := range stmts {
		e, ok := w.Entity(names.Of(s.Subject))
		if !ok {
			m.FP++
			continue
		}
		if w.IsTrue(e, names.Of(s.Predicate), s.Object.Value) {
			m.TP++
		} else {
			m.FP++
		}
	}
	return m
}

// TestScoreFusionMatchesReference: walked in item order, with the entity
// looked up once per subject, the scores are the map walk's — on seeds 1–3,
// the default pipeline and the one with every optional stage (whose
// discovered entities are in no world: all their truths are false
// positives), for the run's own method and for a single-truth one.
func TestScoreFusionMatchesReference(t *testing.T) {
	every := []core.Option{core.WithListPages(), core.WithTemporal(), core.WithEntityDiscovery(), core.WithAlignment()}
	for seed := int64(1); seed <= 3; seed++ {
		for name, opts := range map[string][]core.Option{"default": nil, "every stage": every} {
			label := fmt.Sprintf("seed %d %s", seed, name)
			res, err := core.New(append([]core.Option{core.WithSeed(seed)}, opts...)...).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sc := &eval.Scorer{World: res.World}
			vote := (&fusion.Vote{}).Fuse(fusion.BuildClaims(res.Statements, fusion.BySourceExtractor))
			for _, fused := range []*fusion.Result{res.Fused(), vote} {
				got, want := sc.ScoreFusion(fused), referenceScoreFusion(res.World, fused)
				if got != want {
					t.Errorf("%s %s: %v, want %v", label, fused.Method, got, want)
				}
				if got.TP == 0 || got.FP == 0 || got.FN == 0 {
					t.Errorf("%s %s: %v leaves a count at zero: the run does not exercise it", label, fused.Method, got)
				}
			}
			if got := sc.ScoreFusion(res.Fused()); got != res.FusionMetrics {
				t.Errorf("%s: %v, the run recorded %v", label, got, res.FusionMetrics)
			}
			if got, want := sc.ScoreStatements(res.Statements), referenceScoreStatements(res.World, res.Statements); got != want {
				t.Errorf("%s: statements score %v, want %v", label, got, want)
			}
		}
	}
}
