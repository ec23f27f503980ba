package fusion

import (
	"fmt"
	"slices"
	"sort"
)

// Correlations captures detected copy-correlations between sources and the
// resulting per-source vote weights. Following the paper's third fusion
// bullet (and simplifying the Bayesian copy-detection of Dong et al.,
// PVLDB 2010), sources that (nearly) always provide identical values on the
// items they share are grouped into correlation clusters; within a cluster
// only one representative votes at full weight and the rest are discounted,
// so a copier cannot amplify its original's (possibly wrong) claims.
//
// The discriminating signal is the agreement ratio on shared items: two
// independent sources with accuracies A1, A2 agree with probability about
// A1·A2 plus a small same-error term, which stays visibly below 1, whereas
// replication drives agreement to (nearly) 1. This detects exact and
// near-exact copying; partially-overlapping copying requires the full joint
// Bayesian treatment of Dong et al., which the paper leaves as future work.
type Correlations struct {
	// SourceNames is the SourceNames of the claims the correlations were
	// detected on; the source numbers below are places in it.
	SourceNames []string
	// ClusterOf[n] is the number of source n's cluster representative, the
	// first of the cluster's names.
	ClusterOf []int32
	// weights[n] is source n's vote multiplier.
	weights []float64
	// Pairs lists detected correlated pairs with their agreement ratio.
	Pairs []CorrelatedPair
}

// CorrelatedPair is one detected source correlation.
type CorrelatedPair struct {
	A, B      string
	Agreement float64
}

// Weight returns the vote multiplier for a source by its number: 1 for the
// representative of a cluster and for an uncorrelated source — and for every
// source when c is nil, no discount.
func (c *Correlations) Weight(source int) float64 {
	if c == nil {
		return 1
	}
	return c.weights[source]
}

// check panics unless the discount, if there is one, was detected on claims
// with these claims' sources: its weights are read by source number, and on
// other sources a number names somebody else.
func (c *Correlations) check(claims *Claims) {
	if c != nil && !slices.Equal(c.SourceNames, claims.SourceNames) {
		panic(fmt.Sprintf("fusion: Discount detected on sources %q, the claims name %q", c.SourceNames, claims.SourceNames))
	}
}

// CorrelationConfig controls copy detection.
type CorrelationConfig struct {
	// AgreementThreshold is the same-value agreement ratio on shared items
	// above which two sources are considered correlated (default 0.98).
	// The high default means only (near-)exact replication is flagged: two
	// independently accurate sources (e.g. two curated KBs at 98% accuracy
	// each) agree on roughly the product of their accuracies, which stays
	// safely below it.
	AgreementThreshold float64
	// MinCommonItems is the minimum number of shared items before the
	// agreement ratio is meaningful (default 3).
	MinCommonItems int
	// CopierWeight is the vote multiplier for non-representative members of
	// a correlation cluster (default 0.2).
	CopierWeight float64
}

// DefaultCorrelationConfig returns the standard configuration.
func DefaultCorrelationConfig() CorrelationConfig {
	return CorrelationConfig{AgreementThreshold: 0.98, MinCommonItems: 3, CopierWeight: 0.2}
}

// DetectCorrelations measures pairwise agreement on shared items and groups
// sources into correlation clusters via union-find.
//
// It counts item by item: the sources covering an item are paired with each
// other, so the work is the sum over items of (covering sources)², and a
// counter exists only for a pair that shares an item — nothing grows with
// (all sources)² × items.
func DetectCorrelations(c *Claims, cfg CorrelationConfig) *Correlations {
	if cfg.AgreementThreshold <= 0 {
		cfg.AgreementThreshold = 0.98
	}
	if cfg.MinCommonItems <= 0 {
		cfg.MinCommonItems = 3
	}
	if cfg.CopierWeight <= 0 {
		cfg.CopierWeight = 0.2
	}

	c.checkSources()
	names := c.SourceNames

	type tally struct{ shared, agree int }
	tallies := map[[2]int32]*tally{}
	var cells []uint64 // one item's (source, value) cells: source<<32 | value index
	var runs []int     // where each source's cells begin, then len(cells)
	for _, it := range c.Items {
		cells = cells[:0]
		for vi, vc := range it.Values {
			for _, sc := range vc.Sources {
				cells = append(cells, uint64(sc.Source)<<32|uint64(vi))
			}
		}
		// Sorted, a source's cells are one run and the run is its value set.
		slices.Sort(cells)
		cells = slices.Compact(cells)
		runs = runs[:0]
		for k, cell := range cells {
			if k == 0 || cell>>32 != cells[k-1]>>32 {
				runs = append(runs, k)
			}
		}
		runs = append(runs, len(cells))
		for i := 0; i+2 < len(runs); i++ {
			a := cells[runs[i]:runs[i+1]]
			for j := i + 1; j+1 < len(runs); j++ {
				b := cells[runs[j]:runs[j+1]]
				pair := [2]int32{int32(a[0] >> 32), int32(b[0] >> 32)}
				t := tallies[pair]
				if t == nil {
					t = &tally{}
					tallies[pair] = t
				}
				t.shared++
				if sameValues(a, b) {
					t.agree++
				}
			}
		}
	}

	// The smaller number is the root, so a cluster's representative is its
	// first name whatever order the pairs are united in.
	parent := make([]int32, len(names))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(s int32) int32 {
		for parent[s] != s {
			parent[s] = parent[parent[s]]
			s = parent[s]
		}
		return s
	}

	out := &Correlations{
		SourceNames: names,
		ClusterOf:   make([]int32, len(names)),
		weights:     make([]float64, len(names)),
	}
	for pair, t := range tallies {
		if t.shared < cfg.MinCommonItems {
			continue
		}
		ratio := float64(t.agree) / float64(t.shared)
		if ratio >= cfg.AgreementThreshold {
			out.Pairs = append(out.Pairs, CorrelatedPair{A: names[pair[0]], B: names[pair[1]], Agreement: ratio})
			ra, rb := find(pair[0]), find(pair[1])
			parent[max(ra, rb)] = min(ra, rb)
		}
	}
	sort.Slice(out.Pairs, func(i, j int) bool {
		if out.Pairs[i].A != out.Pairs[j].A {
			return out.Pairs[i].A < out.Pairs[j].A
		}
		return out.Pairs[i].B < out.Pairs[j].B
	})
	for n := range names {
		rep := find(int32(n))
		out.ClusterOf[n] = rep
		if rep == int32(n) {
			out.weights[n] = 1
		} else {
			out.weights[n] = cfg.CopierWeight
		}
	}
	return out
}

// sameValues reports whether two sources' cells of one item name the same
// values.
func sameValues(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if uint32(a[k]) != uint32(b[k]) {
			return false
		}
	}
	return true
}

// Clusters returns the correlation clusters with more than one member, each
// sorted, ordered by representative.
func (c *Correlations) Clusters() [][]string {
	members := make([][]string, len(c.ClusterOf))
	for n, rep := range c.ClusterOf {
		members[rep] = append(members[rep], c.SourceNames[n])
	}
	return slices.DeleteFunc(members, func(m []string) bool { return len(m) < 2 })
}
