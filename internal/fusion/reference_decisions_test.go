package fusion

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"akb/internal/mapreduce"
	"akb/internal/rdf"
)

// The methods as they built their decisions into maps (refResult,
// refDecision): VOTE, ACCU and POPACCU, the fact-finders, the hierarchy
// expansion, ADAPTIVE and FULL. referenceMultiTruthFuse is in
// reference_test.go. The math is the live code's, statement for statement;
// what differs is where a belief and a source's state are kept — under a
// built key and under the source's name here.

// referenceFuse runs the reference of a method.
func referenceFuse(m Method, c *Claims) *refResult {
	switch m := m.(type) {
	case *Vote:
		return referenceVoteFuse(m, c)
	case *Accu:
		return referenceAccuFuse(m, c)
	case *MultiTruth:
		return referenceMultiTruthFuse(m, c)
	case *FactFinder:
		return referenceFactFinderFuse(m, c)
	case *Hierarchical:
		return referenceHierarchicalFuse(m, c)
	case *Full:
		corr := DetectCorrelations(c, m.CorrCfg)
		base := &MultiTruth{Weighted: true, Discount: corr, Workers: m.Workers, Obs: m.Obs}
		res := referenceHierarchicalFuse(&Hierarchical{Base: base, Forest: m.Forest}, c)
		res.Method = m.Name()
		return res
	case *Adaptive:
		return referenceAdaptiveFuse(m, c)
	}
	panic(fmt.Sprintf("no reference for %T", m))
}

func referenceVoteFuse(v *Vote, c *Claims) *refResult {
	decisions := mapreduce.Map(mapreduce.Config{Workers: v.Workers, Obs: v.Obs}, c.Items, func(it *Item) *refDecision {
		d := &refDecision{Item: it, Belief: make(map[string]float64, len(it.Values))}
		var best rdf.Term
		bestScore := -1.0
		total := 0.0
		for _, vc := range it.Values {
			score := 0.0
			for _, sc := range vc.Sources {
				w := 1.0
				if v.Weighted {
					w = sc.Confidence
					if w <= 0 {
						w = 0.5
					}
				}
				if v.Discount != nil {
					w *= v.Discount.Weight(int(sc.Source))
				}
				score += w
			}
			d.Belief[vc.Value.Key()] = score
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
		if bestScore >= 0 {
			d.Truths = []rdf.Term{best}
		}
		return d
	})
	res := &refResult{Method: v.Name(), Decisions: make(map[string]*refDecision, len(decisions))}
	for _, d := range decisions {
		res.Decisions[d.Item.Key()] = d
	}
	return res
}

func referenceAccuFuse(a *Accu, c *Claims) *refResult {
	iters := a.Iterations
	if iters <= 0 {
		iters = 20
	}
	init := a.InitialAccuracy
	if init <= 0 || init >= 1 {
		init = 0.8
	}
	acc := make(map[string]float64, len(c.SourceNames))
	for _, s := range c.SourceNames {
		acc[s] = init
	}

	type itemProbs struct {
		item  *Item
		probs map[string]float64 // value key -> probability
	}
	var lastE []itemProbs

	for iter := 0; iter < iters; iter++ {
		lastE = mapreduce.Map(mapreduce.Config{Workers: a.Workers, Obs: a.Obs}, c.Items,
			func(it *Item) itemProbs { return itemProbs{item: it, probs: referenceAccuEStep(a, c, it, acc)} })

		sum := make(map[string]float64, len(acc))
		cnt := make(map[string]float64, len(acc))
		for _, ip := range lastE {
			for _, vc := range ip.item.Values {
				p := ip.probs[vc.Value.Key()]
				for _, sc := range vc.Sources {
					sum[c.SourceNames[sc.Source]] += p
					cnt[c.SourceNames[sc.Source]]++
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

	res := &refResult{Method: a.Name(), Decisions: make(map[string]*refDecision, len(c.Items)), SourceQuality: acc}
	for _, ip := range lastE {
		d := &refDecision{Item: ip.item, Belief: ip.probs}
		var best rdf.Term
		bestP := -1.0
		for _, vc := range ip.item.Values {
			p := ip.probs[vc.Value.Key()]
			if p > bestP || (p == bestP && vc.Value.Compare(best) < 0) {
				best, bestP = vc.Value, p
			}
		}
		if bestP >= 0 {
			d.Truths = []rdf.Term{best}
		}
		res.Decisions[ip.item.Key()] = d
	}
	return res
}

func referenceAccuEStep(a *Accu, c *Claims, it *Item, acc map[string]float64) map[string]float64 {
	nFalse := float64(len(it.Values) - 1)
	if nFalse < 1 {
		nFalse = 1
	}
	var totalClaims float64
	for _, vc := range it.Values {
		totalClaims += float64(len(vc.Sources))
	}
	scores := make([]float64, len(it.Values))
	maxScore := math.Inf(-1)
	for i, vc := range it.Values {
		score := 0.0
		for _, sc := range vc.Sources {
			A := clampAcc(acc[c.SourceNames[sc.Source]])
			var falseProb float64
			if a.Popularity {
				falseProb = (float64(len(vc.Sources)) + 1) / (totalClaims + float64(len(it.Values)))
			} else {
				falseProb = 1 / nFalse
			}
			w := 1.0
			if a.Weighted {
				w = sc.Confidence
				if w <= 0 {
					w = 0.5
				}
			}
			if a.Discount != nil {
				w *= a.Discount.Weight(int(sc.Source))
			}
			score += w * math.Log(A/((1-A)*falseProb))
		}
		scores[i] = score
		if score > maxScore {
			maxScore = score
		}
	}
	var z float64
	for i := range scores {
		scores[i] = math.Exp(scores[i] - maxScore)
		z += scores[i]
	}
	probs := make(map[string]float64, len(it.Values))
	for i, vc := range it.Values {
		probs[vc.Value.Key()] = scores[i] / z
	}
	return probs
}

func referenceFactFinderFuse(f *FactFinder, c *Claims) *refResult {
	iters := f.Iterations
	if iters <= 0 {
		iters = 20
	}
	damp := f.Dampening
	if damp <= 0 {
		damp = 0.3
	}

	type edge struct {
		source string
		w      float64
	}
	type claimRef struct {
		item  int
		value int
	}
	var claimEdges [][]edge
	var claimRefs []claimRef
	srcClaims := map[string][]int{}
	for ii, it := range c.Items {
		for vi, vc := range it.Values {
			id := len(claimEdges)
			claimRefs = append(claimRefs, claimRef{item: ii, value: vi})
			var edges []edge
			for _, sc := range vc.Sources {
				w := 1.0
				if f.Weighted {
					w = sc.Confidence
					if w <= 0 {
						w = 0.5
					}
				}
				name := c.SourceNames[sc.Source]
				edges = append(edges, edge{source: name, w: w})
				srcClaims[name] = append(srcClaims[name], id)
			}
			claimEdges = append(claimEdges, edges)
		}
	}

	trust := make(map[string]float64, len(c.SourceNames))
	for _, s := range c.SourceNames {
		trust[s] = 0.9
	}
	belief := make([]float64, len(claimEdges))

	for iter := 0; iter < iters; iter++ {
		maxB := 0.0
		for id, edges := range claimEdges {
			switch f.Kind {
			case KindTruthFinder:
				sum := 0.0
				for _, e := range edges {
					t := trust[e.source]
					if t > 0.999999 {
						t = 0.999999
					}
					sum += -math.Log(1-t) * e.w
				}
				belief[id] = 1 - math.Exp(-damp*sum)
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
		maxT := 0.0
		for _, s := range c.SourceNames {
			ids := srcClaims[s]
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
			default:
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

	res := &refResult{
		Method:        f.Name(),
		Decisions:     make(map[string]*refDecision, len(c.Items)),
		SourceQuality: trust,
	}
	for _, it := range c.Items {
		res.Decisions[it.Key()] = &refDecision{Item: it, Belief: make(map[string]float64, len(it.Values))}
	}
	for id, ref := range claimRefs {
		it := c.Items[ref.item]
		d := res.Decisions[it.Key()]
		d.Belief[it.Values[ref.value].Value.Key()] = belief[id]
	}
	for _, it := range c.Items {
		d := res.Decisions[it.Key()]
		var best rdf.Term
		bestB := -1.0
		for _, vc := range it.Values {
			b := d.Belief[vc.Value.Key()]
			if b > bestB || (b == bestB && vc.Value.Compare(best) < 0) {
				best, bestB = vc.Value, b
			}
		}
		if bestB >= 0 {
			d.Truths = []rdf.Term{best}
		}
	}
	return res
}

// referenceExpansions is what the fold recorded per item key: the claimed
// values that generalise another claimed value of their cluster. It is
// recomputed here from the unfolded items, not read from the live fold.
func referenceExpansions(h *Hierarchical, c *Claims) map[string]map[string]bool {
	expansions := map[string]map[string]bool{}
	for _, it := range c.Items {
		var hierVals []string
		for _, vc := range it.Values {
			if vc.Value.IsLiteral() && h.Forest.Known(vc.Value.Value) {
				hierVals = append(hierVals, vc.Value.Value)
			}
		}
		if len(hierVals) < 2 {
			continue
		}
		claimedAnc := map[string]bool{}
		for _, cluster := range h.Forest.ClusterCompatible(hierVals) {
			for _, v := range cluster {
				for _, b := range cluster {
					if v != b && h.Forest.IsAncestor(v, b) {
						claimedAnc[v] = true
					}
				}
			}
		}
		if len(claimedAnc) > 0 {
			expansions[it.Key()] = claimedAnc
		}
	}
	return expansions
}

func referenceHierarchicalFuse(h *Hierarchical, c *Claims) *refResult {
	folded, _ := h.fold(c)
	expansions := referenceExpansions(h, c)
	res := referenceFuse(h.Base, folded)
	res.Method = h.Name()

	for key, d := range res.Decisions {
		claimedAncestors := expansions[key]
		if len(claimedAncestors) == 0 {
			continue
		}
		var extra []rdf.Term
		for _, t := range d.Truths {
			if !t.IsLiteral() {
				continue
			}
			for _, anc := range h.Forest.Ancestors(t.Value) {
				if claimedAncestors[anc] {
					at := rdf.Literal(anc)
					if !d.accepted(at) && !slices.Contains(extra, at) {
						extra = append(extra, at)
						if d.Belief != nil {
							d.Belief[at.Key()] = d.Belief[t.Key()]
						}
					}
				}
			}
		}
		d.Truths = referenceSortedTruths(append(d.Truths, extra...))
	}
	return res
}

func referenceAdaptiveFuse(a *Adaptive, c *Claims) *refResult {
	thresh := a.Threshold
	if thresh <= 0 {
		thresh = 0.8
	}
	single := a.Single
	if single == nil {
		single = &Accu{Weighted: true}
	}
	multi := a.Multi
	if multi == nil {
		multi = &MultiTruth{Weighted: true}
	}
	fn := EstimateFunctionality(c, a.MinSupport)

	fc := &Claims{SourceNames: c.SourceNames}
	nc := &Claims{SourceNames: c.SourceNames}
	for _, it := range c.Items {
		if fn.Degree(it.Predicate.Key()) >= thresh {
			fc.Items = append(fc.Items, it)
		} else {
			nc.Items = append(nc.Items, it)
		}
	}
	res := &refResult{
		Method:        a.Name(),
		Decisions:     make(map[string]*refDecision, len(c.Items)),
		SourceQuality: map[string]float64{},
	}
	// A half's estimate counts for the sources that claim in it.
	merge := func(r *refResult, half *Claims) {
		for k, d := range r.Decisions {
			res.Decisions[k] = d
		}
		claims := map[string]bool{}
		for _, it := range half.Items {
			for _, vc := range it.Values {
				for _, sc := range vc.Sources {
					claims[c.SourceNames[sc.Source]] = true
				}
			}
		}
		for s, q := range r.SourceQuality {
			if claims[s] && q > res.SourceQuality[s] {
				res.SourceQuality[s] = q
			}
		}
	}
	if len(fc.Items) > 0 {
		merge(referenceFuse(single, fc), fc)
	}
	if len(nc.Items) > 0 {
		merge(referenceFuse(multi, nc), nc)
	}
	return res
}

// beliefsByKey is a decision's beliefs as the string-keyed form held them:
// each claimed value's under its key, then each implied truth's under its
// own — written over the belief of a candidate the base method rejected, as
// the map was.
func beliefsByKey(d *Decision) map[string]float64 {
	m := make(map[string]float64, len(d.Belief)+len(d.Implied))
	for k, vc := range d.Item.Values {
		m[vc.Value.Key()] = d.Belief[k]
	}
	for _, imp := range d.Implied {
		m[imp.Value.Key()] = imp.Belief
	}
	return m
}

// diffReference returns how a result differs from the reference's, or nil:
// the same decisions about the same items, decision i about item i of the
// claims, with the same truths in the same order and every belief and
// source quality equal to the bit.
func diffReference(c *Claims, got *Result, want *refResult) error {
	if got.Method != want.Method {
		return fmt.Errorf("method %q, want %q", got.Method, want.Method)
	}
	if len(got.Decisions) != len(want.Decisions) || len(got.Decisions) != len(c.Items) {
		return fmt.Errorf("%d decisions, the reference has %d, for %d items", len(got.Decisions), len(want.Decisions), len(c.Items))
	}
	for i := range got.Decisions {
		d := &got.Decisions[i]
		if d.Item.Key() != c.Items[i].Key() {
			return fmt.Errorf("decision %d is about %s, item %d is %s", i, d.Item.Key(), i, c.Items[i].Key())
		}
		w := want.Decisions[d.Item.Key()]
		if w == nil {
			return fmt.Errorf("%s: the reference has no decision", d.Item.Key())
		}
		if !reflect.DeepEqual(d.Item, w.Item) {
			return fmt.Errorf("%s: decided over another item than the reference", d.Item.Key())
		}
		if !slices.Equal(d.Truths, w.Truths) {
			return fmt.Errorf("%s: truths %v, want %v", d.Item.Key(), d.Truths, w.Truths)
		}
		if len(d.Belief) != len(d.Item.Values) {
			return fmt.Errorf("%s: %d beliefs for %d values", d.Item.Key(), len(d.Belief), len(d.Item.Values))
		}
		// Every way of reading a belief agrees with the reference's one map:
		// by position, beside an implied truth, and the two laid over each
		// other as the map was written.
		for k, vc := range d.Item.Values {
			if math.Float64bits(d.Belief[k]) != math.Float64bits(w.Belief[vc.Value.Key()]) {
				return fmt.Errorf("%s: belief %d, in %v, is %v, want %v", d.Item.Key(), k, vc.Value, d.Belief[k], w.Belief[vc.Value.Key()])
			}
		}
		for _, imp := range d.Implied {
			if math.Float64bits(imp.Belief) != math.Float64bits(w.Belief[imp.Value.Key()]) {
				return fmt.Errorf("%s: implied belief in %v is %v, want %v", d.Item.Key(), imp.Value, imp.Belief, w.Belief[imp.Value.Key()])
			}
		}
		if err := diffFloats(beliefsByKey(d), w.Belief); err != nil {
			return fmt.Errorf("%s: belief%v", d.Item.Key(), err)
		}
	}
	if err := diffFloats(qualityByName(c, got), want.SourceQuality); err != nil {
		return fmt.Errorf("source quality%v", err)
	}
	return nil
}

// qualityByName is a result's source qualities as the string-keyed form held
// them: under the source's name, and no entry at all from a method that
// estimates none.
func qualityByName(c *Claims, res *Result) map[string]float64 {
	if res.SourceQuality != nil && len(res.SourceQuality) != len(c.SourceNames) {
		panic(fmt.Sprintf("%s: %d source qualities for %d sources", res.Method, len(res.SourceQuality), len(c.SourceNames)))
	}
	m := make(map[string]float64, len(res.SourceQuality))
	for n, q := range res.SourceQuality {
		m[c.SourceNames[n]] = q
	}
	return m
}

func diffFloats(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf(": %d entries, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("[%q] = %v (%#x), want %v (%#x)", k, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	return nil
}
