package fusion

import (
	"math"
	"slices"

	"akb/internal/mapreduce"
	"akb/internal/obs"
	"akb/internal/rdf"
)

// MultiTruth implements a latent-truth-model-style multi-truth fusion after
// Zhao et al. (PVLDB 2012): each (item, value) pair has an independent
// truth variable, and each source is characterised by sensitivity (recall —
// the probability it asserts a true value of an item it covers) and
// specificity (the probability it refrains from asserting a false value).
// Unlike the single-truth baselines it can accept several values per item,
// handling non-functional attributes (a film's several producers) — the
// first bullet of the paper's fusion design.
//
// Inference is EM: the E-step computes per-(item, value) posteriors in
// parallel over items; the M-step re-estimates source sensitivity and
// specificity from the posteriors. The loop is allocation-free: each item's
// (value × covering-source) claim matrix is precomputed once, and posteriors
// are written into the decisions' beliefs, reused across iterations.
type MultiTruth struct {
	// Prior is the prior probability a claimed value is true (default 0.5).
	Prior float64
	// AcceptThreshold is the posterior needed to accept a value
	// (default 0.5).
	AcceptThreshold float64
	// Weighted exponentiates each claimant's likelihood ratio by 0.5 +
	// confidence/2, softening the influence of low-confidence extractions.
	Weighted bool
	// Discount optionally down-weights correlated sources.
	Discount *Correlations
	// Iterations bounds the EM loop (default 15).
	Iterations int
	// Workers bounds the per-item fan-out (0 = GOMAXPROCS).
	Workers int
	// Obs optionally records executor telemetry into the registry.
	Obs *obs.Registry
}

// Name implements Method.
func (m *MultiTruth) Name() string {
	name := "MULTI"
	if m.Weighted {
		name += "+conf"
	}
	if m.Discount != nil {
		name += "+corr"
	}
	return name
}

type sourceStats struct {
	sens float64
	spec float64
}

// mtValue is one claimed value's rows of the per-item claim matrix,
// aligned with the item's covering-source list.
type mtValue struct {
	claimed []bool
	// weight is what each covering source's log likelihood ratio counts for
	// on this value: the confidence mapping (for a claim, when Weighted)
	// times the correlation discount. No iteration changes it.
	weight []float64
}

// mtItem is the precomputed EM state for one item.
type mtItem struct {
	// covering lists the numbers of the sources asserting any value of the
	// item, ascending — which fixes the float accumulation order.
	covering []int32
	values   []mtValue
}

// Fuse implements Method.
func (m *MultiTruth) Fuse(c *Claims) *Result {
	prior := m.Prior
	if prior <= 0 || prior >= 1 {
		prior = 0.5
	}
	thresh := m.AcceptThreshold
	if thresh <= 0 {
		thresh = 0.5
	}
	iters := m.Iterations
	if iters <= 0 {
		iters = 15
	}
	m.Discount.check(c)
	// A decision's beliefs are its item's posteriors per value, overwritten
	// by every E-step.
	decisions := newDecisions(c)
	nsrc := len(c.SourceNames)
	stats := make([]sourceStats, nsrc)
	for i := range stats {
		stats[i] = sourceStats{sens: 0.8, spec: 0.9}
	}

	// Every item's covering list, then its claim matrix, each kind of row
	// cut from one array.
	items := make([]mtItem, len(c.Items))
	covering := make([]int32, 0, c.NumClaims())
	seen := make([]bool, nsrc)
	nValues, nCells := 0, 0
	for i, it := range c.Items {
		first := len(covering)
		for _, vc := range it.Values {
			for _, sc := range vc.Sources {
				if !seen[sc.Source] {
					seen[sc.Source] = true
					covering = append(covering, sc.Source)
				}
			}
		}
		cov := covering[first:len(covering):len(covering)]
		slices.Sort(cov)
		for _, si := range cov {
			seen[si] = false
		}
		items[i].covering = cov
		nValues += len(it.Values)
		nCells += len(it.Values) * len(cov)
	}
	values := make([]mtValue, nValues)
	claimed := make([]bool, nCells)
	weight := make([]float64, nCells)
	pos := make([]int, nsrc) // covering position of each source number
	for i, it := range c.Items {
		mi := &items[i]
		nv, nc := len(it.Values), len(mi.covering)
		mi.values, values = values[:nv:nv], values[nv:]
		for ci, si := range mi.covering {
			pos[si] = ci
		}
		for vi, vc := range it.Values {
			v := &mi.values[vi]
			v.claimed, claimed = claimed[:nc:nc], claimed[nc:]
			v.weight, weight = weight[:nc:nc], weight[nc:]
			for ci, si := range mi.covering {
				v.weight[ci] = m.Discount.Weight(int(si))
			}
			for _, sc := range vc.Sources {
				ci := pos[sc.Source]
				v.claimed[ci] = true
				if m.Weighted {
					// Map confidence into [0.5, 1]: low-confidence claims
					// are dampened but not annihilated. Using raw
					// confidence as the exponent would bias fusion toward
					// rejection, because assertions would count less than
					// the full-weight silent negatives of non-claiming
					// sources.
					v.weight[ci] *= 0.5 + sc.weight()/2
				}
			}
		}
	}

	cfg := mapreduce.Config{Workers: m.Workers, Obs: m.Obs}
	logPrior := math.Log(prior / (1 - prior))
	// A source's two log likelihood ratios: what its claiming a value and
	// what its silence on one say about the value being true.
	logClaim := make([]float64, nsrc)
	logSilent := make([]float64, nsrc)
	type acc struct{ tpSens, totSens, tnSpec, totSpec float64 }
	accs := make([]acc, nsrc)
	for iter := 0; iter < iters; iter++ {
		for si, st := range stats {
			logClaim[si] = math.Log(st.sens / (1 - st.spec))
			logSilent[si] = math.Log((1 - st.sens) / st.spec)
		}
		// E-step: items are independent, so per-item posteriors can be
		// computed in parallel into their preallocated buffers.
		mapreduce.ForEach(cfg, len(items), func(i int) {
			mi, probs := &items[i], decisions[i].Belief
			for vi := range mi.values {
				v := &mi.values[vi]
				logOdds := logPrior
				for ci, si := range mi.covering {
					if v.claimed[ci] {
						logOdds += v.weight[ci] * logClaim[si]
					} else {
						logOdds += v.weight[ci] * logSilent[si]
					}
				}
				probs[vi] = 1 / (1 + math.Exp(-logOdds))
			}
		})

		// M-step: serial, in item order then covering order then value
		// order — the same accumulation order at any parallelism.
		clear(accs)
		for i := range items {
			mi, probs := &items[i], decisions[i].Belief
			for ci, si := range mi.covering {
				a := &accs[si]
				for vi := range mi.values {
					p := probs[vi]
					claims := mi.values[vi].claimed[ci]
					// Sensitivity: of true values, how many does src assert?
					a.totSens += p
					if claims {
						a.tpSens += p
					}
					// Specificity: of false values, how many does src skip?
					a.totSpec += 1 - p
					if !claims {
						a.tnSpec += 1 - p
					}
				}
			}
		}
		for si := range accs {
			a := &accs[si]
			st := &stats[si]
			if a.totSens > 0 {
				st.sens = clampRate(a.tpSens / a.totSens)
			}
			if a.totSpec > 0 {
				st.spec = clampRate(a.tnSpec / a.totSpec)
			}
		}
	}

	res := &Result{Method: m.Name(), Decisions: decisions, SourceQuality: make([]float64, nsrc)}
	for si := range stats {
		res.SourceQuality[si] = stats[si].sens
	}
	// The accepted values are cut from one array, and an item accepts at
	// most as many values as it has.
	truths := make([]rdf.Term, 0, nValues)
	for i, it := range c.Items {
		d := &res.Decisions[i]
		first := len(truths)
		for vi, vc := range it.Values {
			if d.Belief[vi] >= thresh {
				truths = append(truths, vc.Value)
			}
		}
		// Guarantee at least one truth per claimed item: take the argmax
		// when nothing clears the threshold.
		if len(truths) == first {
			if best, ok := d.mostBelieved(); ok {
				truths = append(truths, best)
			}
		}
		if len(truths) > first {
			d.Truths = truths[first:len(truths):len(truths)]
		}
		if len(d.Truths) > 1 {
			sortedTruths(d.Truths)
		}
	}
	return res
}

func clampRate(r float64) float64 {
	if r < 0.05 {
		return 0.05
	}
	if r > 0.95 {
		return 0.95
	}
	return r
}
