package fusion

import (
	"math"
	"sort"

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
// specificity from the posteriors. The loop is allocation-free: sources
// are interned to dense indices, each item's (value × covering-source)
// claim matrix is precomputed once, and posteriors are written into
// per-item buffers reused across iterations.
type MultiTruth struct {
	// Prior is the prior probability a claimed value is true (default 0.5).
	Prior float64
	// AcceptThreshold is the posterior needed to accept a value
	// (default 0.5).
	AcceptThreshold float64
	// Weighted exponentiates each source's likelihood ratio by its claim
	// confidence, softening the influence of low-confidence extractions.
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
	conf    []float64
}

// mtItem is the precomputed EM state for one item.
type mtItem struct {
	// covering lists the indices of sources asserting any value of the
	// item, ascending. SourceNames is sorted, so ascending index order is
	// sorted-name order, and that fixes the float accumulation order.
	covering []int
	values   []mtValue
	// probs holds the current posterior per value, overwritten each
	// iteration.
	probs []float64
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
	nsrc := len(c.SourceNames)
	srcIdx := make(map[string]int, nsrc)
	for i, s := range c.SourceNames {
		srcIdx[s] = i
	}
	stats := make([]sourceStats, nsrc)
	for i := range stats {
		stats[i] = sourceStats{sens: 0.8, spec: 0.9}
	}
	var discount []float64
	if m.Discount != nil {
		discount = make([]float64, nsrc)
		for i, s := range c.SourceNames {
			discount[i] = m.Discount.Weight(s)
		}
	}

	// Precompute every item's covering list and claim matrix once.
	items := make([]mtItem, len(c.Items))
	seen := make([]bool, nsrc)
	pos := make([]int, nsrc) // covering position of each source index
	for i, it := range c.Items {
		mi := &items[i]
		for _, vc := range it.Values {
			for _, sc := range vc.Sources {
				if si := srcIdx[sc.Source]; !seen[si] {
					seen[si] = true
					mi.covering = append(mi.covering, si)
				}
			}
		}
		sort.Ints(mi.covering)
		for ci, si := range mi.covering {
			seen[si] = false
			pos[si] = ci
		}
		nc := len(mi.covering)
		mi.values = make([]mtValue, len(it.Values))
		mi.probs = make([]float64, len(it.Values))
		for vi, vc := range it.Values {
			v := &mi.values[vi]
			v.claimed = make([]bool, nc)
			v.conf = make([]float64, nc)
			for _, sc := range vc.Sources {
				ci := pos[srcIdx[sc.Source]]
				v.claimed[ci] = true
				v.conf[ci] = sc.Confidence
			}
		}
	}

	cfg := mapreduce.Config{Workers: m.Workers, Obs: m.Obs}
	logPrior := math.Log(prior / (1 - prior))
	type acc struct{ tpSens, totSens, tnSpec, totSpec float64 }
	accs := make([]acc, nsrc)
	for iter := 0; iter < iters; iter++ {
		// E-step: items are independent, so per-item posteriors can be
		// computed in parallel into their preallocated buffers.
		mapreduce.ForEach(cfg, len(items), func(i int) {
			mi := &items[i]
			for vi := range mi.values {
				v := &mi.values[vi]
				logOdds := logPrior
				for ci, si := range mi.covering {
					st := stats[si]
					var ratio float64
					conf := 1.0
					claims := v.claimed[ci]
					if claims {
						ratio = st.sens / (1 - st.spec)
						conf = v.conf[ci]
					} else {
						ratio = (1 - st.sens) / st.spec
					}
					w := 1.0
					if m.Weighted && claims {
						if conf <= 0 {
							conf = 0.5
						}
						// Map confidence into [0.5, 1]: low-confidence claims
						// are dampened but not annihilated. Using raw
						// confidence as the exponent would bias fusion toward
						// rejection, because assertions would count less than
						// the full-weight silent negatives of non-claiming
						// sources.
						w = 0.5 + conf/2
					}
					if discount != nil {
						w *= discount[si]
					}
					logOdds += w * math.Log(ratio)
				}
				mi.probs[vi] = 1 / (1 + math.Exp(-logOdds))
			}
		})

		// M-step: serial, in item order then covering order then value
		// order — the same accumulation order at any parallelism.
		for i := range accs {
			accs[i] = acc{}
		}
		for i := range items {
			mi := &items[i]
			for ci, si := range mi.covering {
				a := &accs[si]
				for vi := range mi.values {
					p := mi.probs[vi]
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

	res := &Result{
		Method:        m.Name(),
		Decisions:     make(map[string]*Decision, len(c.Items)),
		SourceQuality: make(map[string]float64, nsrc),
	}
	for si, s := range c.SourceNames {
		res.SourceQuality[s] = stats[si].sens
	}
	for i, it := range c.Items {
		mi := &items[i]
		belief := make(map[string]float64, len(it.Values))
		d := &Decision{Item: it, Belief: belief}
		for vi, vc := range it.Values {
			p := mi.probs[vi]
			belief[vc.Value.Key()] = p
			if p >= thresh {
				d.Truths = append(d.Truths, vc.Value)
			}
		}
		// Guarantee at least one truth per claimed item: take the argmax
		// when nothing clears the threshold.
		if len(d.Truths) == 0 && len(it.Values) > 0 {
			var best rdf.Term
			bestP := -1.0
			for vi, vc := range it.Values {
				if p := mi.probs[vi]; p > bestP || (p == bestP && vc.Value.Compare(best) < 0) {
					best, bestP = vc.Value, p
				}
			}
			d.Truths = []rdf.Term{best}
		}
		d.Truths = sortedTruths(d.Truths)
		res.Decisions[it.Key] = d
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
