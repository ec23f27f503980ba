package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"akb/internal/hierarchy"
	"akb/internal/rdf"
)

// nastyForest has a chain (leaf ⊂ mid ⊂ root), a sibling branch under its
// middle (twig ⊂ mid), and a second tree whose leaves sort before their
// root (aa, bb ⊂ zland) — the order in which ClusterCompatible puts the root
// with the first leaf only, so the second implies a generalisation that was
// folded into another value.
func nastyForest() *hierarchy.Forest {
	f := hierarchy.NewForest()
	f.MustAddChain("leaf", "mid", "root")
	f.MustAddChain("twig", "mid")
	f.MustAddChain("aa", "zland")
	f.MustAddChain("bb", "zland")
	return f
}

// nastyStatements extends reference_match_test.go's generated statements
// (duplicate assertions, unscored ones, one source under two extractors,
// literals, IRIs and blanks of one spelling as values) with what the
// decisions' shape is sensitive to: items over the forest — chains, sibling
// clusters where a generalisation is a candidate of its own (claimed by one
// weak source, so a multi-truth base rejects it and the hierarchy then
// implies it), a forest name claimed as a literal and as an IRI — items with
// one value, and items whose values differ in kind only.
func nastyStatements(r *rand.Rand) []rdf.Statement {
	stmts := generatedStatements(r, 1+r.Intn(300), 1+r.Intn(10))
	sources := []string{"host0", "host1", "host2", "host3", "host6", "host7"}
	confs := []float64{0.3, 0.55, 0.8, 1}
	claim := func(entity string, value rdf.Term, source string, conf float64) {
		stmts = append(stmts, rdf.S(
			rdf.T(rdf.AKB.IRI("e/"+entity), rdf.AKB.IRI("attr/place"), value),
			rdf.Provenance{Source: source, Extractor: "e0"}, conf))
	}
	places := []string{"leaf", "mid", "root", "twig", "aa", "bb", "zland", "elsewhere"}
	for i := 0; i < 12; i++ {
		entity := fmt.Sprintf("h%02d", i)
		switch i % 4 {
		case 0: // any mix of forest values, each by any mix of sources
			for _, p := range places {
				if r.Intn(2) == 0 {
					continue
				}
				for _, s := range sources {
					if r.Intn(3) == 0 {
						claim(entity, rdf.Literal(p), s, confs[r.Intn(len(confs))])
					}
				}
			}
		case 1: // sibling cluster: both leaves well supported, the generalisation by one weak source
			for _, s := range sources[:3] {
				claim(entity, rdf.Literal("leaf"), s, 0.8)
				claim(entity, rdf.Literal("twig"), s, 0.8)
			}
			claim(entity, rdf.Literal("mid"), sources[3+r.Intn(3)], 0.3)
		case 2: // pure chain, and a leaf of the other tree next to its folded root
			for k, p := range []string{"leaf", "mid", "root", "aa", "bb", "zland"} {
				claim(entity, rdf.Literal(p), sources[(k+r.Intn(2))%len(sources)], confs[r.Intn(len(confs))])
				claim(entity, rdf.Literal(p), sources[(k+2)%len(sources)], confs[r.Intn(len(confs))])
			}
		case 3: // a forest name claimed as an IRI too, which is no value of the forest, beside its ancestors
			claim(entity, rdf.IRI("leaf"), sources[0], 0.8)
			claim(entity, rdf.Literal("leaf"), sources[1], 0.8)
			claim(entity, rdf.Literal("mid"), sources[2], 0.55)
			claim(entity, rdf.Literal("root"), sources[r.Intn(len(sources))], 0.55)
		}
	}
	for i := 0; i < 5; i++ {
		claim(fmt.Sprintf("solo%d", i), rdf.Literal("only"), sources[r.Intn(len(sources))], confs[r.Intn(len(confs))])
	}
	for i := 0; i < 4; i++ {
		entity := fmt.Sprintf("kinds%d", i)
		for _, v := range []rdf.Term{rdf.Literal("c"), rdf.IRI("c"), rdf.Blank("c"), rdf.Literal("d")} {
			for _, s := range sources {
				if r.Intn(2) == 0 {
					claim(entity, v, s, confs[r.Intn(len(confs))])
				}
			}
		}
	}
	return stmts
}

// withWorkers sets the fan-out width on the methods that have one.
func withWorkers(m Method, w int) Method {
	switch m := m.(type) {
	case *Vote:
		m.Workers = w
	case *Accu:
		m.Workers = w
	case *MultiTruth:
		m.Workers = w
	case *Full:
		m.Workers = w
	case *Hierarchical:
		withWorkers(m.Base, w)
	}
	return m
}

// ruleMethods is every method the rules are checked on: the comparison
// suite, the fact-finders with and without confidences, and the options
// that change a rule.
func ruleMethods(forest *hierarchy.Forest) []Method {
	ms := append(AllMethods(forest), FactFinders()...)
	for _, kind := range []FactFinderKind{KindSums, KindAverageLog} {
		ms = append(ms, &FactFinder{Kind: kind, Weighted: true})
	}
	return append(ms,
		&Vote{Weighted: true},
		&Accu{Weighted: true}, &Accu{Popularity: true, Weighted: true},
		&Hierarchical{Base: &Vote{}, Forest: forest},
		&Hierarchical{Base: &Accu{}, Forest: forest},
		&Full{Forest: forest, CorrCfg: CorrelationConfig{AgreementThreshold: 0.5, MinCommonItems: 1}},
		&Adaptive{},
	)
}

// checkRules fuses the claims with m at 1 and at 4 workers and returns the
// first rule the result breaks, or nil. The two runs agree to the bit, the
// result has the shape every method promises, and the method answers to its
// doc comment. An EM method — ACCU, POPACCU, MULTI, a fact-finder — answers
// to its decision rule, its M-step (the source qualities re-estimated from
// the returned beliefs) and its E-step: the beliefs of an Iterations: k+1
// run are its scoring rule applied to an Iterations: k run's qualities, for
// k = 1…3, to 1e-12. A method made of others answers to its composition,
// and those to their rules on the claims they were handed.
func checkRules(c *Claims, m Method) error {
	res := withWorkers(m, 1).Fuse(c)
	err := diffResults(withWorkers(m, 4).Fuse(c), res)
	if err == nil {
		err = checkShape(c, res)
	}
	if err == nil {
		switch m := m.(type) {
		case *Vote:
			err = checkVote(c, m, res)
		case *Accu:
			err = checkEM(res, accuRules(c, m))
		case *MultiTruth:
			err = checkEM(res, multiTruthRules(c, m))
		case *FactFinder:
			err = checkEM(res, factFinderRules(c, m))
		case *Hierarchical:
			err = checkHierarchical(c, m, res)
		case *Full:
			hier := &Hierarchical{Base: &MultiTruth{Weighted: true, Discount: DetectCorrelations(c, m.CorrCfg)}, Forest: m.Forest}
			if err = diffResults(res, hier.Fuse(c)); err == nil {
				err = checkRules(c, hier)
			}
		case *Adaptive:
			err = checkAdaptive(c, res)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", m.Name(), err)
	}
	return nil
}

// checkShape holds a result to what every method promises: decision i about
// item i, a truth, one belief in [0, 1] for each value and each implied
// truth, and a quality in [0, 1] for every source or none at all.
func checkShape(c *Claims, res *Result) error {
	outside := func(x float64) bool { return !(x >= 0 && x <= 1) } // NaN too
	if len(res.Decisions) != len(c.Items) || res.SourceQuality != nil && len(res.SourceQuality) != len(c.SourceNames) ||
		slices.ContainsFunc(res.SourceQuality, outside) {
		return fmt.Errorf("%d decisions for %d items, qualities %v for %d sources", len(res.Decisions), len(c.Items), res.SourceQuality, len(c.SourceNames))
	}
	for i := range res.Decisions {
		d := &res.Decisions[i]
		if d.Item.Key() != c.Items[i].Key() || len(d.Belief) != len(d.Item.Values) || len(d.Truths) == 0 ||
			slices.ContainsFunc(d.Belief, outside) || slices.ContainsFunc(d.Implied, func(imp Implied) bool { return outside(imp.Belief) }) {
			return fmt.Errorf("decision %d, about %s, accepts %v, believes %v, implies %v", i, d.Item.Key(), d.Truths, d.Belief, d.Implied)
		}
	}
	return nil
}

// checkVote holds VOTE to its closed form: a value's votes are the sum over
// its claims of 1 (the confidence where Weighted) times the copy discount,
// its belief its share of the item's votes, and the truth the value of the
// most votes, the smaller term on a tie.
func checkVote(c *Claims, v *Vote, res *Result) error {
	votes := sumClaims(c, func(_ *Item, _ *ValueClaims, sc SourceClaim) float64 {
		return claimWeight(sc, v.Weighted) * v.Discount.Weight(int(sc.Source))
	})
	for i, it := range c.Items {
		if d := &res.Decisions[i]; !slices.Equal(d.Truths, []rdf.Term{mostBelieved(it, votes[i])}) || res.SourceQuality != nil {
			return fmt.Errorf("%s: truths %v, qualities %v, want the most voted value and none", it.Key(), d.Truths, res.SourceQuality)
		}
		total := 0.0
		for _, n := range votes[i] {
			total += n
		}
		scaled(votes[i], total)
	}
	return closeBeliefs(res, votes)
}

// emRules are what an EM method's doc comment says of it.
type emRules struct {
	truths  func(d *Decision) []rdf.Term // the decision rule
	quality func(*Result) []float64      // the M-step, NaN where it cannot tell
	beliefs func(*Result) [][]float64    // the E-step on a result's qualities
	run     func(iterations int) *Result
	// stopped, where EM may stop before its cap, says whether it stopped
	// after cur's last iteration; prev ran one iteration less.
	stopped func(prev, cur *Result) bool
}

// checkEM holds a result to its method's rules, and the E-step to the
// results of 1 to 4 iterations: each one's beliefs are the E-step on the
// qualities of the one before — or, where that one stopped, each is it.
func checkEM(res *Result, r emRules) error {
	for i := range res.Decisions {
		if d := &res.Decisions[i]; !slices.Equal(d.Truths, r.truths(d)) {
			return fmt.Errorf("%s: truths %v, want %v", d.Item.Key(), d.Truths, r.truths(d))
		}
	}
	if err := closeTo(res.SourceQuality, r.quality(res)); err != nil {
		return fmt.Errorf("source quality%v", err)
	}
	prev, cur := (*Result)(nil), r.run(1)
	for k := 1; k <= 3; k++ {
		next := r.run(k + 1)
		var err error
		if k > 1 && r.stopped != nil && r.stopped(prev, cur) {
			err = diffResults(next, cur)
		} else {
			err = closeBeliefs(next, r.beliefs(cur))
		}
		if err != nil {
			return fmt.Errorf("Iterations %d against %d: %w", k+1, k, err)
		}
		prev, cur = cur, next
	}
	return nil
}

// accuRules: the truth is the most believed value. A source's accuracy is
// the mean belief of the values it claims, clamped to [0.01, 0.99], or the
// initial accuracy, 0.8, where it claims none. A value's belief is the softmax
// over the item's values of C(v) = Σ w·ln(A / ((1 − A)·f)) over v's claims:
// w the claim's weight, A the claimant's clamped accuracy and f the chance
// of a false value — 1/n for the item's n other values (at least 1), or
// POPACCU's (v's claims + 1) / (the item's claims + values). EM stops once
// no accuracy moves by more than 1e-6.
func accuRules(c *Claims, a *Accu) emRules {
	return emRules{
		truths: singleTruth,
		quality: func(res *Result) []float64 {
			sum, n := claimedBeliefs(c, res)
			for s := range sum {
				if sum[s] = clamp(sum[s]/n[s], 0.01, 0.99); n[s] == 0 {
					sum[s] = 0.8
				}
			}
			return sum
		},
		beliefs: func(res *Result) [][]float64 {
			scores := sumClaims(c, func(it *Item, vc *ValueClaims, sc SourceClaim) float64 {
				f := 1 / float64(max(len(it.Values)-1, 1))
				if a.Popularity {
					f = float64(len(vc.Sources)+1) / float64((&Claims{Items: []*Item{it}}).NumClaims()+len(it.Values))
				}
				acc := clamp(res.SourceQuality[sc.Source], 0.01, 0.99)
				return claimWeight(sc, a.Weighted) * a.Discount.Weight(int(sc.Source)) * math.Log(acc/((1-acc)*f))
			})
			for _, score := range scores {
				top, z := slices.Max(score), 0.0
				for k := range score {
					score[k] = math.Exp(score[k] - top)
					z += score[k]
				}
				scaled(score, z)
			}
			return scores
		},
		run: func(k int) *Result { b := *a; b.Iterations = k; return b.Fuse(c) },
		stopped: func(prev, cur *Result) bool {
			return slices.EqualFunc(prev.SourceQuality, cur.SourceQuality, func(p, q float64) bool { return math.Abs(q-p) <= 1e-6 })
		},
	}
}

// multiTruthRules: the truths are the values believed at 0.5 or above, the
// most believed one where none is. Over the items a source covers, its
// sensitivity — its quality — is the belief in the values it claims over
// the belief in all of them, and its specificity the disbelief in the
// values it does not claim over the disbelief in all, each clamped to
// [0.05, 0.95]. A value's belief is σ(ln(prior/(1 − prior)) + Σ w·ln r),
// prior 0.5, over the item's covering sources: r is sens/(1 − spec) for a
// claimant and (1 − sens)/spec for a silent source, w the copy discount,
// for a claimant times 0.5 + confidence/2 where Weighted.
func multiTruthRules(c *Claims, m *MultiTruth) emRules {
	const thresh, prior = 0.5, 0.5
	// rates re-estimates the sources' sensitivities and specificities.
	rates := func(res *Result) (sens, spec []float64) {
		n := len(c.SourceNames)
		tp, ts, tn, tf := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i, it := range c.Items {
			p := res.Decisions[i].Belief
			for _, s := range covering(it) {
				for k, vc := range it.Values {
					ts[s] += p[k]
					tf[s] += 1 - p[k]
					if claimOf(vc, s) != nil {
						tp[s] += p[k]
					} else {
						tn[s] += 1 - p[k]
					}
				}
			}
		}
		for s := range tp {
			tp[s], tn[s] = clamp(tp[s]/ts[s], 0.05, 0.95), clamp(tn[s]/tf[s], 0.05, 0.95) // NaN over nothing
		}
		return tp, tn
	}
	return emRules{
		truths: func(d *Decision) (want []rdf.Term) {
			for k, vc := range d.Item.Values {
				if d.Belief[k] >= thresh {
					want = append(want, vc.Value)
				}
			}
			if want == nil {
				return singleTruth(d)
			}
			slices.SortFunc(want, rdf.Term.Compare)
			return want
		},
		quality: func(res *Result) []float64 { sens, _ := rates(res); return sens },
		beliefs: func(res *Result) [][]float64 {
			sens, spec := rates(res)
			out := make([][]float64, len(c.Items))
			for i, it := range c.Items {
				out[i] = make([]float64, len(it.Values))
				for k, vc := range it.Values {
					x := math.Log(prior / (1 - prior))
					for _, s := range covering(it) {
						w := m.Discount.Weight(int(s))
						if sc := claimOf(vc, s); sc == nil {
							x += w * math.Log((1-sens[s])/spec[s])
						} else if m.Weighted {
							x += w * (0.5 + sc.weight()/2) * math.Log(sens[s]/(1-spec[s]))
						} else {
							x += w * math.Log(sens[s]/(1-spec[s]))
						}
					}
					out[i][k] = 1 / (1 + math.Exp(-x))
				}
			}
			return out
		},
		run: func(k int) *Result { b := *m; b.Iterations = k; return b.Fuse(c) },
	}
}

// factFinderRules, over the graph of sources and the (item, value) facts
// they claim, each edge weighing 1 (the confidence where Weighted): the
// truth is the most believed value. A source's trust is, for SUMS, the sum
// of its facts' beliefs and, for AVGLOG, ln(its facts + 1) times their mean
// belief, each scaled by the highest trust; for TRUTHFINDER, their mean
// belief. A fact's belief is, for SUMS and AVGLOG, the weighted sum of its
// sources' trusts scaled by the highest belief; for TRUTHFINDER,
// 1 − ∏ (1 − t)^(γ·w), γ = 0.3 and t capped below 1.
func factFinderRules(c *Claims, f *FactFinder) emRules {
	tf, damp := f.Kind == KindTruthFinder, 0.3
	return emRules{
		truths: singleTruth,
		quality: func(res *Result) []float64 {
			sum, n := claimedBeliefs(c, res)
			top := 0.0
			for s := range sum {
				switch f.Kind {
				case KindAverageLog:
					sum[s] = math.Log(n[s]+1) * sum[s] / n[s]
				case KindTruthFinder:
					sum[s] /= n[s]
				}
				if n[s] == 0 {
					sum[s] = math.NaN() // kept from the iteration before
				} else {
					top = max(top, sum[s])
				}
			}
			if tf {
				return sum
			}
			return scaled(sum, top)
		},
		beliefs: func(res *Result) [][]float64 {
			out := sumClaims(c, func(_ *Item, _ *ValueClaims, sc SourceClaim) float64 {
				t, w := res.SourceQuality[sc.Source], claimWeight(sc, f.Weighted)
				if tf {
					return -math.Log(1-min(t, 0.999999)) * w
				}
				return t * w
			})
			top := 0.0
			for _, b := range out {
				for k := range b {
					if tf {
						b[k] = 1 - math.Exp(-damp*b[k])
					}
					top = max(top, b[k])
				}
			}
			for _, b := range out {
				if !tf {
					scaled(b, top)
				}
			}
			return out
		},
		run: func(k int) *Result { b := *f; b.Iterations = k; return b.Fuse(c) },
	}
}

// checkHierarchical holds the hierarchy to its fold's stated rules. Against
// the item before the fold: every value of the folded item and every truth
// was claimed, and every claimed generalisation of an accepted value is
// accepted; an implied truth was not accepted by the base method, carries
// the belief of an accepted value it generalises and the number of sources
// that claimed it. Against the folded item: the result is the base method's
// over the folded items, with the implied truths added to its truths and
// believed in place of the base method's belief where they are values.
func checkHierarchical(c *Claims, h *Hierarchical, res *Result) error {
	folded := &Claims{SourceNames: c.SourceNames, Items: make([]*Item, len(res.Decisions))}
	for i := range res.Decisions {
		folded.Items[i] = res.Decisions[i].Item
	}
	base := h.Base.Fuse(folded)
	for i := range res.Decisions {
		d, b, it := &res.Decisions[i], &base.Decisions[i], c.Items[i]
		truths, belief := slices.Clone(b.Truths), slices.Clone(b.Belief)
		for _, imp := range d.Implied {
			claimed := it.Value(imp.Value)
			implied := slices.ContainsFunc(b.Truths, func(t rdf.Term) bool {
				return h.Forest.IsAncestor(imp.Value.Value, t.Value) && b.Belief[b.Item.index(t)] == imp.Belief
			})
			if claimed == nil || claimed.SupportCount() != imp.Sources || !implied || b.Accepted(imp.Value) || !imp.Value.IsLiteral() {
				return fmt.Errorf("%s: implies %+v beside the base method's truths %v", it.Key(), imp, b.Truths)
			}
			truths = append(truths, imp.Value)
			if k := d.Item.index(imp.Value); k >= 0 {
				belief[k] = imp.Belief
			}
		}
		if slices.SortFunc(truths, rdf.Term.Compare); !slices.Equal(d.Truths, truths) || !sameBits(d.Belief, belief) {
			return fmt.Errorf("%s: truths %v, beliefs %v; the base method's with the implied truths are %v, %v", it.Key(), d.Truths, d.Belief, truths, belief)
		}
		for _, vc := range d.Item.Values {
			if it.Value(vc.Value) == nil {
				return fmt.Errorf("%s: the fold makes up %v", it.Key(), vc.Value)
			}
		}
		for _, t := range d.Truths {
			if it.Value(t) == nil {
				return fmt.Errorf("%s: accepts %v, which nobody claimed", it.Key(), t)
			}
			for _, anc := range h.Forest.Ancestors(t.Value) {
				if at := rdf.Literal(anc); t.IsLiteral() && it.Value(at) != nil && !d.Accepted(at) {
					return fmt.Errorf("%s: accepts %v and not its claimed generalisation %v", it.Key(), t, at)
				}
			}
		}
	}
	if !sameBits(res.SourceQuality, base.SourceQuality) {
		return fmt.Errorf("source qualities %v, the base method's %v", res.SourceQuality, base.SourceQuality)
	}
	return checkRules(folded, h.Base)
}

// checkAdaptive holds ADAPTIVE to its routing: an item whose predicate's
// estimated functionality reaches 0.8 is decided by ACCU+conf over those
// items, any other by MULTI+conf over the rest; a source's quality is the
// higher of the halves' estimates among the halves it claims in, nil where
// neither half estimates one.
func checkAdaptive(c *Claims, res *Result) error {
	methods := []Method{&Accu{Weighted: true}, &MultiTruth{Weighted: true}}
	fn := EstimateFunctionality(c)
	halves, pos := []*Claims{{SourceNames: c.SourceNames}, {SourceNames: c.SourceNames}}, make([][]int, 2)
	for i, it := range c.Items {
		h := 1
		if fn.Degree(it.Predicate.Key()) >= 0.8 {
			h = 0
		}
		halves[h].Items, pos[h] = append(halves[h].Items, it), append(pos[h], i)
	}
	var quality []float64
	for h, half := range halves {
		if len(half.Items) == 0 {
			continue
		}
		r := methods[h].Fuse(half)
		for j := range r.Decisions {
			if err := diffDecisions(&res.Decisions[pos[h][j]], &r.Decisions[j]); err != nil {
				return fmt.Errorf("decision %d, routed to %s: %w", pos[h][j], methods[h].Name(), err)
			}
		}
		if r.SourceQuality != nil && quality == nil {
			quality = make([]float64, len(c.SourceNames))
		}
		for _, s := range claimants(half) {
			if r.SourceQuality != nil {
				quality[s] = max(quality[s], r.SourceQuality[s])
			}
		}
		if err := checkRules(half, methods[h]); err != nil {
			return err
		}
	}
	if !sameBits(res.SourceQuality, quality) {
		return fmt.Errorf("source qualities %v, want %v", res.SourceQuality, quality)
	}
	return nil
}

// singleTruth is the single-truth decision rule: the most believed value.
func singleTruth(d *Decision) []rdf.Term { return []rdf.Term{mostBelieved(d.Item, d.Belief)} }

// mostBelieved is the value of the highest score, the smaller term on a tie.
func mostBelieved(it *Item, score []float64) rdf.Term {
	best := 0
	for k := range score {
		if score[k] > score[best] || score[k] == score[best] && it.Values[k].Value.Compare(it.Values[best].Value) < 0 {
			best = k
		}
	}
	return it.Values[best].Value
}

// claimWeight is what a claim counts for: 1, or where weighted its
// confidence (0.5 for a claim without one).
func claimWeight(sc SourceClaim, weighted bool) float64 {
	if weighted {
		return sc.weight()
	}
	return 1
}

// sumClaims is, for every value of every item, the sum of f over its claims.
func sumClaims(c *Claims, f func(it *Item, vc *ValueClaims, sc SourceClaim) float64) [][]float64 {
	out := make([][]float64, len(c.Items))
	for i, it := range c.Items {
		out[i] = make([]float64, len(it.Values))
		for k, vc := range it.Values {
			for _, sc := range vc.Sources {
				out[i][k] += f(it, vc, sc)
			}
		}
	}
	return out
}

// claimedBeliefs sums, for every source, the beliefs of the values it
// claims, and counts them.
func claimedBeliefs(c *Claims, res *Result) (sum, n []float64) {
	sum, n = make([]float64, len(c.SourceNames)), make([]float64, len(c.SourceNames))
	for i, it := range c.Items {
		for k, vc := range it.Values {
			for _, sc := range vc.Sources {
				sum[sc.Source] += res.Decisions[i].Belief[k]
				n[sc.Source]++
			}
		}
	}
	return sum, n
}

// covering lists the sources that claim any value of the item, ascending;
// claimants those that claim any value of any item.
func covering(it *Item) []int32 { return claimants(&Claims{Items: []*Item{it}}) }

func claimants(c *Claims) []int32 {
	var out []int32
	for _, it := range c.Items {
		for _, vc := range it.Values {
			for _, sc := range vc.Sources {
				out = append(out, sc.Source)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// claimOf returns source s's claim of the value, or nil.
func claimOf(vc *ValueClaims, s int32) *SourceClaim {
	if k := slices.IndexFunc(vc.Sources, func(sc SourceClaim) bool { return sc.Source == s }); k >= 0 {
		return &vc.Sources[k]
	}
	return nil
}

func clamp(x, lo, hi float64) float64 { return min(max(x, lo), hi) }

// scaled divides xs by top where top is above 0.
func scaled(xs []float64, top float64) []float64 {
	for i := range xs {
		if top > 0 {
			xs[i] /= top
		}
	}
	return xs
}

// closeTo returns how got differs from want by more than 1e-12, or nil; a
// NaN in want is a value the rule cannot tell.
func closeTo(got, want []float64) error {
	for k, w := range want {
		if len(got) != len(want) || !math.IsNaN(w) && !(math.Abs(got[k]-w) <= 1e-12) {
			return fmt.Errorf(" %v, want %v", got, want)
		}
	}
	return nil
}

func closeBeliefs(res *Result, want [][]float64) error {
	for i := range res.Decisions {
		if err := closeTo(res.Decisions[i].Belief, want[i]); err != nil {
			return fmt.Errorf("%s: belief%v", res.Decisions[i].Item.Key(), err)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// diffResults returns how two results differ to the bit, or nil: the
// decisions in their order and the source qualities, not the names.
func diffResults(got, want *Result) error {
	if len(got.Decisions) != len(want.Decisions) || !sameBits(got.SourceQuality, want.SourceQuality) {
		return fmt.Errorf("%d decisions and qualities %v, want %d and %v", len(got.Decisions), got.SourceQuality, len(want.Decisions), want.SourceQuality)
	}
	for i := range want.Decisions {
		if err := diffDecisions(&got.Decisions[i], &want.Decisions[i]); err != nil {
			return fmt.Errorf("decision %d: %w", i, err)
		}
	}
	return nil
}

// diffDecisions returns how two decisions differ to the bit, or nil.
func diffDecisions(g, w *Decision) error {
	sameImplied := slices.EqualFunc(g.Implied, w.Implied, func(a, b Implied) bool {
		return a.Value == b.Value && a.Sources == b.Sources && math.Float64bits(a.Belief) == math.Float64bits(b.Belief)
	})
	if !reflect.DeepEqual(g.Item, w.Item) || !slices.Equal(g.Truths, w.Truths) || !sameBits(g.Belief, w.Belief) || !sameImplied {
		return fmt.Errorf("%s: truths %v, beliefs %v, implied %v; want %s: %v, %v, %v",
			g.Item.Key(), g.Truths, g.Belief, g.Implied, w.Item.Key(), w.Truths, w.Belief, w.Implied)
	}
	return nil
}

// TestImpliedBeliefTakesPrecedence pins the quirk the goldens rest on: a
// generalisation that is a candidate of its own (its cluster has sibling
// branches), rejected by the base method and then implied by an accepted
// descendant, is believed as that descendant is — in Belief, in Implied and
// through Support alike.
func TestImpliedBeliefTakesPrecedence(t *testing.T) {
	var stmts []rdf.Statement
	for _, s := range []string{"s1", "s2", "s3"} {
		stmts = append(stmts, stmt("i", "leaf", s, 0.8), stmt("i", "twig", s, 0.8))
	}
	stmts = append(stmts, stmt("i", "mid", "s4", 0.3))
	c := BuildClaims(stmts, BySource)
	base := (&MultiTruth{Weighted: true}).Fuse(c).Decisions[0]
	mid, leaf := rdf.Literal("mid"), rdf.Literal("leaf")
	if base.Accepted(mid) || !base.Accepted(leaf) {
		t.Fatalf("the base method accepts %v: want leaf and not mid", base.Truths)
	}
	own, _, _ := base.Support(mid)
	d := (&Hierarchical{Base: &MultiTruth{Weighted: true}, Forest: nastyForest()}).Fuse(c).Decisions[0]
	if !d.Accepted(mid) {
		t.Fatalf("mid is not implied: %v", d.Truths)
	}
	want, _, _ := d.Support(leaf)
	got, sources, _ := d.Support(mid)
	k := slices.IndexFunc(d.Item.Values, func(vc *ValueClaims) bool { return vc.Value == mid })
	if got != want || d.Belief[k] != want || len(d.Implied) != 1 || d.Implied[0] != (Implied{Value: mid, Belief: want, Sources: 1}) {
		t.Errorf("mid is believed at %v (Belief %v, Implied %v), want leaf's %v", got, d.Belief[k], d.Implied, want)
	}
	if got == own {
		t.Errorf("mid keeps the belief the base method gave it (%v): the case does not tell the two apart", own)
	}
	if sources != 1 {
		t.Errorf("mid has %d sources, want the 1 that claimed it", sources)
	}
}

// TestImpliedTruthReportsItsClaimants: a generalisation the fold gave to a
// descendant is not among the values of the item the decision was made
// over, and used to be served as if nobody had claimed it. It reports the
// sources that claimed it before the fold.
func TestImpliedTruthReportsItsClaimants(t *testing.T) {
	stmts := []rdf.Statement{
		stmt("i", "leaf", "s1", 0.8), stmt("i", "leaf", "s2", 0.8),
		stmt("i", "mid", "s1", 0.8), stmt("i", "mid", "s3", 0.8), stmt("i", "mid", "s4", 0.8),
		stmt("i", "root", "s5", 0.8),
		stmt("j", "leaf", "s1", 0.8), stmt("j", "mid", "s2", 0.8), stmt("j", "mid", "s3", 0.8),
		stmt("j", "mid", "s2", 0.6),
	}
	c := BuildClaims(stmts, BySource)
	for _, m := range []Method{
		&Hierarchical{Base: &MultiTruth{}, Forest: nastyForest()},
		&Hierarchical{Base: &Vote{}, Forest: nastyForest()},
		&Full{Forest: nastyForest()},
	} {
		res := m.Fuse(c)
		d := res.Decision(stmts[0].ItemKey())
		if d.Item.Value(rdf.Literal("mid")) != nil {
			t.Fatalf("%s: the fold left mid among the item's values", m.Name())
		}
		// leaf is the chain's representative: it counts the five sources
		// the fold gave it, its own two among them.
		for value, want := range map[string]int{"leaf": 5, "mid": 3, "root": 1} {
			if _, sources, ok := d.Support(rdf.Literal(value)); !ok || sources != want || !d.Accepted(rdf.Literal(value)) {
				t.Errorf("%s: %s has %d sources (known %v, truths %v), want %d", m.Name(), value, sources, ok, d.Truths, want)
			}
		}
		d = res.Decision(stmts[6].ItemKey())
		if _, sources, ok := d.Support(rdf.Literal("mid")); !ok || sources != 2 {
			t.Errorf("%s: mid, claimed by s3 and twice by s2, has %d sources (known %v), want 2", m.Name(), sources, ok)
		}
	}
}
