package fusion

import (
	"math"

	"akb/internal/mapreduce"
	"akb/internal/obs"
)

// Accu implements the ACCU baseline (Dong et al., PVLDB 2009 / VLDB'14
// adaptation): iterative joint estimation of source accuracy and value
// probability under a single-truth assumption. Each value's vote count is
//
//	C(v) = Σ_{s asserts v} w_s · ln( n·A(s) / (1 − A(s)) )
//
// where n is the number of possible false values; value probabilities are
// the softmax of vote counts, and source accuracies are re-estimated as the
// average probability of the values the source claims.
//
// With Popularity set, the uniform false-value distribution 1/n is replaced
// by each value's empirical popularity, turning ACCU into POPACCU: popular
// false values are less surprising, so agreeing on a popular value is
// weaker evidence of truth.
type Accu struct {
	// Popularity switches to the POPACCU false-value model.
	Popularity bool
	// Weighted multiplies each vote by the claim's extractor confidence.
	Weighted bool
	// Discount optionally down-weights correlated sources.
	Discount *Correlations
	// Iterations bounds the EM loop (default 20).
	Iterations int
	// Workers bounds the per-item fan-out (0 = GOMAXPROCS).
	Workers int
	// Obs optionally records executor telemetry into the registry.
	Obs *obs.Registry
}

// Name implements Method.
func (a *Accu) Name() string {
	name := "ACCU"
	if a.Popularity {
		name = "POPACCU"
	}
	if a.Weighted {
		name += "+conf"
	}
	if a.Discount != nil {
		name += "+corr"
	}
	return name
}

const (
	minAccuracy = 0.01
	maxAccuracy = 0.99
	// initialAccuracy seeds every source's accuracy, as in the literature
	// when no gold standard is available.
	initialAccuracy = 0.8
)

// Fuse implements Method.
func (a *Accu) Fuse(c *Claims) *Result {
	iters := a.Iterations
	if iters <= 0 {
		iters = 20
	}
	a.Discount.check(c)
	acc := make([]float64, len(c.SourceNames))
	for s := range acc {
		acc[s] = initialAccuracy
	}
	sum := make([]float64, len(acc))
	cnt := make([]float64, len(acc))

	// The value probabilities are the decisions' beliefs, overwritten by
	// every E-step.
	decisions := newDecisions(c)
	cfg := mapreduce.Config{Workers: a.Workers, Obs: a.Obs}
	for iter := 0; iter < iters; iter++ {
		// E-step: per-item value probabilities given source accuracies.
		// Items are independent — one parallel map.
		mapreduce.ForEach(cfg, len(decisions), func(i int) { a.eStep(&decisions[i], acc) })

		// M-step: source accuracy = mean probability of claimed values.
		clear(sum)
		clear(cnt)
		for i := range decisions {
			d := &decisions[i]
			for k, vc := range d.Item.Values {
				p := d.Belief[k]
				for _, sc := range vc.Sources {
					sum[sc.Source] += p
					cnt[sc.Source]++
				}
			}
		}
		converged := true
		for s := range acc {
			next := acc[s]
			if cnt[s] > 0 {
				next = clampAcc(sum[s] / cnt[s])
			}
			if math.Abs(next-acc[s]) > 1e-6 {
				converged = false
			}
			acc[s] = next
		}
		if converged && iter > 0 {
			break
		}
	}
	acceptMostBelieved(decisions)
	return &Result{Method: a.Name(), Decisions: decisions, SourceQuality: acc}
}

// eStep computes the value probabilities of one item into d.Belief.
func (a *Accu) eStep(d *Decision, acc []float64) {
	it := d.Item
	nFalse := float64(len(it.Values) - 1)
	if nFalse < 1 {
		nFalse = 1
	}
	// Popularity of each value among the item's claims (smoothed), used by
	// POPACCU as the false-claim emission distribution.
	var totalClaims float64
	for _, vc := range it.Values {
		totalClaims += float64(len(vc.Sources))
	}
	scores := d.Belief
	maxScore := math.Inf(-1)
	for i, vc := range it.Values {
		score := 0.0
		for _, sc := range vc.Sources {
			A := clampAcc(acc[sc.Source])
			var falseProb float64
			if a.Popularity {
				falseProb = (float64(len(vc.Sources)) + 1) / (totalClaims + float64(len(it.Values)))
			} else {
				falseProb = 1 / nFalse
			}
			w := 1.0
			if a.Weighted {
				w = sc.weight()
			}
			w *= a.Discount.Weight(int(sc.Source))
			score += w * math.Log(A/((1-A)*falseProb))
		}
		scores[i] = score
		if score > maxScore {
			maxScore = score
		}
	}
	// Softmax with max-shift for numerical stability, summed in value order
	// so the probabilities are a function of the claims alone.
	var z float64
	for i := range scores {
		scores[i] = math.Exp(scores[i] - maxScore)
		z += scores[i]
	}
	for i := range scores {
		scores[i] /= z
	}
}

func clampAcc(a float64) float64 {
	if a < minAccuracy {
		return minAccuracy
	}
	if a > maxAccuracy {
		return maxAccuracy
	}
	return a
}
