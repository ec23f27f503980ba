package fusion

import (
	"sort"
)

// This file implements the paper's observation that "very few works have
// considered the functionality degree of attributes": the degree to which
// an attribute admits a single true value per entity. The Adaptive method
// estimates each predicate's functionality from the claims themselves and
// routes its items to a single-truth or a multi-truth fuser accordingly —
// a film has one director (functional) but several producers
// (non-functional), and fusing both through the same truth model wastes
// either precision or recall.

// Functionality is a per-predicate functionality estimate in (0, 1]:
// 1 means strictly functional (one true value per entity).
type Functionality map[string]float64

// corroboration is the number of sources that make a claimed value count
// in EstimateFunctionality.
const corroboration = 2

// EstimateFunctionality measures, for every predicate, the reciprocal of
// the average number of *corroborated* distinct values per item (values
// asserted by at least two sources). Corroboration filters the one-off
// extraction errors that would otherwise make every attribute look
// non-functional.
func EstimateFunctionality(c *Claims) Functionality {
	type agg struct {
		items  int
		values int
	}
	byPred := map[string]*agg{}
	for _, it := range c.Items {
		pk := it.Predicate.Key()
		a := byPred[pk]
		if a == nil {
			a = &agg{}
			byPred[pk] = a
		}
		corroborated := 0
		for _, vc := range it.Values {
			if len(vc.Sources) >= corroboration {
				corroborated++
			}
		}
		if corroborated == 0 {
			// Uncorroborated items carry no functionality signal.
			continue
		}
		a.items++
		a.values += corroborated
	}
	out := make(Functionality, len(byPred))
	for pk, a := range byPred {
		if a.items == 0 {
			out[pk] = 1
			continue
		}
		out[pk] = float64(a.items) / float64(a.values)
	}
	return out
}

// Degree returns the predicate's functionality (1 when never estimated).
func (f Functionality) Degree(predicateKey string) float64 {
	if d, ok := f[predicateKey]; ok {
		return d
	}
	return 1
}

// Adaptive routes each item to a single-truth or multi-truth fuser based on
// its predicate's estimated functionality degree: ACCU+conf fuses the items
// of a predicate whose degree is functionalDegree or above, MULTI+conf the
// others.
type Adaptive struct{}

// functionalDegree is the functionality degree at or above which Adaptive
// treats a predicate as functional.
const functionalDegree = 0.8

// Name implements Method.
func (a *Adaptive) Name() string { return "ADAPTIVE(func-degree)" }

// Fuse implements Method.
func (a *Adaptive) Fuse(c *Claims) *Result {
	fn := EstimateFunctionality(c)

	// The split remembers where it took each half's items from, and each
	// half's decisions — in its own item order — go back to those places.
	fc := &Claims{SourceNames: c.SourceNames}
	nc := &Claims{SourceNames: c.SourceNames}
	var fpos, npos []int
	for i, it := range c.Items {
		if fn.Degree(it.Predicate.Key()) >= functionalDegree {
			fc.Items = append(fc.Items, it)
			fpos = append(fpos, i)
		} else {
			nc.Items = append(nc.Items, it)
			npos = append(npos, i)
		}
	}
	res := &Result{Method: a.Name(), Decisions: make([]Decision, len(c.Items))}
	merge := func(m Method, half *Claims, pos []int) {
		if len(half.Items) == 0 {
			return
		}
		r := m.Fuse(half)
		for j, d := range r.Decisions {
			res.Decisions[pos[j]] = d
		}
		if r.SourceQuality == nil {
			return
		}
		if res.SourceQuality == nil {
			res.SourceQuality = make([]float64, len(c.SourceNames))
		}
		// A half rates every source of SourceNames, and one that claims
		// nothing in it at the method's untouched prior: its estimate counts
		// for the sources that do claim in it. A source both halves rate
		// keeps the higher estimate.
		claims := make([]bool, len(c.SourceNames))
		for _, it := range half.Items {
			for _, vc := range it.Values {
				for _, sc := range vc.Sources {
					claims[sc.Source] = true
				}
			}
		}
		for s, q := range r.SourceQuality {
			if claims[s] {
				res.SourceQuality[s] = max(res.SourceQuality[s], q)
			}
		}
	}
	merge(&Accu{Weighted: true}, fc, fpos)
	merge(&MultiTruth{Weighted: true}, nc, npos)
	return res
}

// FunctionalityReport lists predicates with their estimated degree, sorted
// by degree then key, for inspection in the CLI.
type FunctionalityReport struct {
	PredicateKey string
	Degree       float64
}

// Report renders the estimate as sorted rows.
func (f Functionality) Report() []FunctionalityReport {
	out := make([]FunctionalityReport, 0, len(f))
	for pk, d := range f {
		out = append(out, FunctionalityReport{PredicateKey: pk, Degree: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Degree != out[j].Degree {
			return out[i].Degree > out[j].Degree
		}
		return out[i].PredicateKey < out[j].PredicateKey
	})
	return out
}
