package eval_test

import (
	"context"
	"fmt"
	"testing"

	"akb/internal/core"
	"akb/internal/eval"
	"akb/internal/fusion"
)

// TestScoresOfPipelineRuns scores seeds 1–3 of the default pipeline and of
// the one with every optional stage (whose discovered entities are in no
// world: all their truths are false positives), for the run's own method
// and for a single-truth one. A result's score is the sum of its decisions'
// scored one by one, and a statement list's the sum of its statements';
// every truth is a true or a false positive; no count is zero, so the runs
// exercise each; and the run's own score is the one it recorded.
func TestScoresOfPipelineRuns(t *testing.T) {
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
				got := sc.ScoreFusion(fused)
				var sum eval.Metrics
				for i := range fused.Decisions {
					sum.Add(sc.ScoreFusion(&fusion.Result{Decisions: fused.Decisions[i : i+1]}))
				}
				if got != sum || got.TP+got.FP != fused.NumTruths() {
					t.Errorf("%s %s: %v, decision by decision %v, for %d truths", label, fused.Method, got, sum, fused.NumTruths())
				}
				if got.TP == 0 || got.FP == 0 || got.FN == 0 {
					t.Errorf("%s %s: %v leaves a count at zero: the run does not exercise it", label, fused.Method, got)
				}
			}
			if got := sc.ScoreFusion(res.Fused()); got != res.FusionMetrics {
				t.Errorf("%s: %v, the run recorded %v", label, got, res.FusionMetrics)
			}
			var sum eval.Metrics
			for i := range res.Statements {
				sum.Add(sc.ScoreStatements(res.Statements[i : i+1]))
			}
			if got := sc.ScoreStatements(res.Statements); got != sum || got.TP+got.FP != len(res.Statements) || got.FN != 0 {
				t.Errorf("%s: statements score %v, statement by statement %v, for %d statements", label, got, sum, len(res.Statements))
			}
		}
	}
}
