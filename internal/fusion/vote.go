package fusion

import (
	"akb/internal/mapreduce"
	"akb/internal/obs"
	"akb/internal/rdf"
)

// Vote is the VOTE baseline: each item's truth is the value asserted by the
// most sources; ties break towards the lexicographically smaller value so
// results are deterministic. With Weighted set, each source's vote counts
// its extractor confidence instead of 1 (the paper's "leveraging confidence
// scores" improvement applied to the simplest baseline).
type Vote struct {
	// Weighted makes votes count claim confidence instead of 1.
	Weighted bool
	// Discount optionally down-weights votes from correlated sources; nil
	// means independence is assumed.
	Discount *Correlations
	// Workers bounds the per-item fan-out (0 = GOMAXPROCS).
	Workers int
	// Obs optionally records executor telemetry (worker fanout, task
	// latency, queue wait) into the registry.
	Obs *obs.Registry
}

// Name implements Method.
func (v *Vote) Name() string {
	switch {
	case v.Weighted && v.Discount != nil:
		return "VOTE+conf+corr"
	case v.Weighted:
		return "VOTE+conf"
	case v.Discount != nil:
		return "VOTE+corr"
	default:
		return "VOTE"
	}
}

// Fuse implements Method. Items are independent, so the whole method is one
// parallel map over them.
func (v *Vote) Fuse(c *Claims) *Result {
	v.Discount.check(c)
	decisions := newDecisions(c)
	truths := make([]rdf.Term, len(decisions))
	mapreduce.ForEach(mapreduce.Config{Workers: v.Workers, Obs: v.Obs}, len(decisions), func(i int) {
		if best, ok := v.decide(&decisions[i]); ok {
			truths[i] = best
			decisions[i].Truths = truths[i : i+1 : i+1]
		}
	})
	return &Result{Method: v.Name(), Decisions: decisions}
}

// decide fills in d's beliefs and returns the value with the most votes; ok
// is false when none was claimed. The pick is made on the votes, before they
// are scaled into beliefs: two unequal counts can round to one quotient.
func (v *Vote) decide(d *Decision) (best rdf.Term, ok bool) {
	bestScore := -1.0
	total := 0.0
	for k, vc := range d.Item.Values {
		score := 0.0
		for _, sc := range vc.Sources {
			w := 1.0
			if v.Weighted {
				w = sc.weight()
			}
			w *= v.Discount.Weight(int(sc.Source))
			score += w
		}
		d.Belief[k] = score
		total += score
		if score > bestScore || (score == bestScore && vc.Value.Compare(best) < 0) {
			best, bestScore = vc.Value, score
		}
	}
	if total > 0 {
		for k := range d.Belief {
			d.Belief[k] /= total
		}
	}
	return best, bestScore >= 0
}
