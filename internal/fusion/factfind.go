package fusion

import "math"

// This file implements the classic Web-link-based fact-finding algorithms
// the paper's fourth fusion bullet builds on (Pasternack & Roth, IJCAI'11,
// "Making Better Informed Trust Decisions with Generalized Fact-finding"):
// Sums (Hubs & Authorities), AverageLog, and TruthFinder (Yin et al.).
// They serve as additional baselines in the fusion comparison; the
// generalized fact-finding idea — weighting the source→claim edges by
// extraction confidence — is available on each via the Weighted flag.

// FactFinder selects one of the classic fact-finding algorithms.
type FactFinderKind uint8

const (
	// KindSums is Hubs & Authorities: source trust = sum of its claims'
	// beliefs, claim belief = sum of its sources' trusts.
	KindSums FactFinderKind = iota
	// KindAverageLog tempers Sums with log-scaled claim counts:
	// trust = ln(|claims| + 1) * avg belief.
	KindAverageLog
	// KindTruthFinder is Yin et al.'s probabilistic model: belief is one
	// minus the product of source error probabilities.
	KindTruthFinder
)

// FactFinder implements Method with one of the classic algorithms.
type FactFinder struct {
	Kind FactFinderKind
	// Weighted applies Pasternack & Roth's generalisation: source→claim
	// edges are weighted by extraction confidence.
	Weighted bool
	// Iterations bounds the fixpoint loop (default 20).
	Iterations int
}

// dampening is TruthFinder's γ factor guarding against source correlation.
const dampening = 0.3

// Name implements Method.
func (f *FactFinder) Name() string {
	var name string
	switch f.Kind {
	case KindSums:
		name = "SUMS"
	case KindAverageLog:
		name = "AVGLOG"
	default:
		name = "TRUTHFINDER"
	}
	if f.Weighted {
		name += "+conf"
	}
	return name
}

// Fuse implements Method.
func (f *FactFinder) Fuse(c *Claims) *Result {
	iters := f.Iterations
	if iters <= 0 {
		iters = 20
	}

	decisions := newDecisions(c)

	// Edge lists: claim id -> sources (with weight), source -> claim ids. A
	// claim is one value of one item; ids run over the items' values in order.
	type edge struct {
		source int32
		w      float64
	}
	var claimEdges [][]edge
	srcClaims := make([][]int, len(c.SourceNames))
	for _, it := range c.Items {
		for _, vc := range it.Values {
			id := len(claimEdges)
			var edges []edge
			for _, sc := range vc.Sources {
				w := 1.0
				if f.Weighted {
					w = sc.weight()
				}
				edges = append(edges, edge{source: sc.Source, w: w})
				srcClaims[sc.Source] = append(srcClaims[sc.Source], id)
			}
			claimEdges = append(claimEdges, edges)
		}
	}

	trust := make([]float64, len(c.SourceNames))
	for s := range trust {
		trust[s] = 0.9
	}
	belief := make([]float64, len(claimEdges))

	for iter := 0; iter < iters; iter++ {
		// Claim beliefs from source trusts.
		maxB := 0.0
		for id, edges := range claimEdges {
			switch f.Kind {
			case KindTruthFinder:
				// σ(v) = 1 - ∏ (1 - t(s))^(γ·w)
				sum := 0.0
				for _, e := range edges {
					t := trust[e.source]
					if t > 0.999999 {
						t = 0.999999
					}
					sum += -math.Log(1-t) * e.w
				}
				belief[id] = 1 - math.Exp(-dampening*sum)
			default:
				b := 0.0
				for _, e := range edges {
					b += trust[e.source] * e.w
				}
				belief[id] = b
				if b > maxB {
					maxB = b
				}
			}
		}
		if f.Kind != KindTruthFinder && maxB > 0 {
			for id := range belief {
				belief[id] /= maxB
			}
		}
		// Source trusts from claim beliefs.
		maxT := 0.0
		for s, ids := range srcClaims {
			if len(ids) == 0 {
				continue
			}
			sum := 0.0
			for _, id := range ids {
				sum += belief[id]
			}
			var t float64
			switch f.Kind {
			case KindSums:
				t = sum
			case KindAverageLog:
				t = math.Log(float64(len(ids))+1) * sum / float64(len(ids))
			default: // TruthFinder: trust is the average claim belief
				t = sum / float64(len(ids))
			}
			trust[s] = t
			if t > maxT {
				maxT = t
			}
		}
		if f.Kind != KindTruthFinder && maxT > 0 {
			for s := range trust {
				trust[s] /= maxT
			}
		}
	}

	// Per-item argmax over claim beliefs (single truth).
	id := 0
	for i := range decisions {
		id += copy(decisions[i].Belief, belief[id:])
	}
	acceptMostBelieved(decisions)
	return &Result{Method: f.Name(), Decisions: decisions, SourceQuality: trust}
}

// FactFinders returns the three classic algorithms plus their
// confidence-generalised variants.
func FactFinders() []Method {
	return []Method{
		&FactFinder{Kind: KindSums},
		&FactFinder{Kind: KindAverageLog},
		&FactFinder{Kind: KindTruthFinder},
		&FactFinder{Kind: KindTruthFinder, Weighted: true},
	}
}
