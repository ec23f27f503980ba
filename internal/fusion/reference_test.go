package fusion

import (
	"math"
	"sort"

	"akb/internal/mapreduce"
	"akb/internal/rdf"
)

// The references: BuildClaims, DetectCorrelations and MultiTruth.Fuse as
// they were before they came off per-statement strings, pairwise walks and
// per-cell logarithms, and every method's decisions as they were built when
// a result was a map of decisions by item key and a decision's beliefs a map
// by value key. They define the output; the tests in reference_match_test.go
// and decisions_match_test.go hold the live code to them exactly.

// refDecision and refResult are Decision and Result in their string-keyed
// form.
type refDecision struct {
	Item   *Item
	Truths []rdf.Term
	// Belief maps value keys to the method's belief the value is true.
	Belief map[string]float64
}

func (d *refDecision) accepted(v rdf.Term) bool {
	for _, t := range d.Truths {
		if t == v {
			return true
		}
	}
	return false
}

type refResult struct {
	Method        string
	Decisions     map[string]*refDecision
	SourceQuality map[string]float64
}

// valueKey identifies one claimed value of one item while claims are built.
type valueKey struct {
	item  string
	value string
}

// referenceBuildClaims groups by built key strings: four strings and five
// map probes a statement.
func referenceBuildClaims(stmts []rdf.Statement, g Granularity) *Claims {
	items := map[string]*Item{}
	values := map[valueKey]*ValueClaims{}
	srcConf := map[valueKey]map[string]float64{}
	for _, s := range stmts {
		ik := s.ItemKey()
		it, ok := items[ik]
		if !ok {
			it = &Item{Subject: s.Subject, Predicate: s.Predicate}
			items[ik] = it
		}
		vk := valueKey{item: ik, value: s.Object.Key()}
		vc, ok := values[vk]
		if !ok {
			vc = &ValueClaims{Value: s.Object}
			values[vk] = vc
			it.Values = append(it.Values, vc)
		}
		src := sourceName(s.Provenance, g)
		m := srcConf[vk]
		if m == nil {
			m = map[string]float64{}
			srcConf[vk] = m
		}
		if conf := math.Min(s.Confidence, 1); conf > m[src] {
			m[src] = conf
		}
	}

	out := &Claims{}
	srcSet := map[string]struct{}{}
	for _, m := range srcConf {
		for s := range m {
			srcSet[s] = struct{}{}
		}
	}
	for s := range srcSet {
		out.SourceNames = append(out.SourceNames, s)
	}
	sort.Strings(out.SourceNames)
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		it := items[k]
		sort.Slice(it.Values, func(i, j int) bool {
			return it.Values[i].Value.Compare(it.Values[j].Value) < 0
		})
		for _, vc := range it.Values {
			m := srcConf[valueKey{item: k, value: vc.Value.Key()}]
			names := make([]string, 0, len(m))
			for s := range m {
				names = append(names, s)
			}
			sort.Strings(names)
			for _, s := range names {
				// A source's number is its name's place among the sorted names.
				n := sort.SearchStrings(out.SourceNames, s)
				vc.Sources = append(vc.Sources, SourceClaim{Source: int32(n), Confidence: m[s]})
			}
		}
		out.Items = append(out.Items, it)
	}
	return out
}

// refCorrelations is Correlations in its string-keyed form.
type refCorrelations struct {
	ClusterOf map[string]string
	weights   map[string]float64
	Pairs     []CorrelatedPair
}

// Weight answered 1 for a name it never saw.
func (c *refCorrelations) Weight(source string) float64 {
	if w, ok := c.weights[source]; ok {
		return w
	}
	return 1
}

func (c *refCorrelations) Clusters() [][]string {
	groups := map[string][]string{}
	for s, rep := range c.ClusterOf {
		groups[rep] = append(groups[rep], s)
	}
	var reps []string
	for rep, members := range groups {
		if len(members) > 1 {
			reps = append(reps, rep)
		}
	}
	sort.Strings(reps)
	out := make([][]string, 0, len(reps))
	for _, rep := range reps {
		members := groups[rep]
		sort.Strings(members)
		out = append(out, members)
	}
	return out
}

// referenceDetectCorrelations walks every pair of sources over nested
// string-keyed maps.
func referenceDetectCorrelations(c *Claims, cfg CorrelationConfig) *refCorrelations {
	if cfg.AgreementThreshold <= 0 {
		cfg.AgreementThreshold = 0.98
	}
	if cfg.MinCommonItems <= 0 {
		cfg.MinCommonItems = 3
	}
	if cfg.CopierWeight <= 0 {
		cfg.CopierWeight = 0.2
	}

	// Per source: item -> set of value keys asserted.
	claimed := map[string]map[string]map[string]struct{}{}
	for _, it := range c.Items {
		for _, vc := range it.Values {
			for _, sc := range vc.Sources {
				name := c.SourceNames[sc.Source]
				byItem := claimed[name]
				if byItem == nil {
					byItem = map[string]map[string]struct{}{}
					claimed[name] = byItem
				}
				vs := byItem[it.Key()]
				if vs == nil {
					vs = map[string]struct{}{}
					byItem[it.Key()] = vs
				}
				vs[vc.Value.Key()] = struct{}{}
			}
		}
	}

	parent := map[string]string{}
	var find func(string) string
	find = func(s string) string {
		p, ok := parent[s]
		if !ok || p == s {
			parent[s] = s
			return s
		}
		r := find(p)
		parent[s] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}

	out := &refCorrelations{ClusterOf: map[string]string{}, weights: map[string]float64{}}
	names := c.SourceNames
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := names[i], names[j]
			shared, agree := 0, 0
			for item, va := range claimed[a] {
				vb, ok := claimed[b][item]
				if !ok {
					continue
				}
				shared++
				if sameValueSet(va, vb) {
					agree++
				}
			}
			if shared < cfg.MinCommonItems {
				continue
			}
			ratio := float64(agree) / float64(shared)
			if ratio >= cfg.AgreementThreshold {
				out.Pairs = append(out.Pairs, CorrelatedPair{A: a, B: b, Agreement: ratio})
				union(a, b)
			}
		}
	}
	sort.Slice(out.Pairs, func(i, j int) bool {
		if out.Pairs[i].A != out.Pairs[j].A {
			return out.Pairs[i].A < out.Pairs[j].A
		}
		return out.Pairs[i].B < out.Pairs[j].B
	})
	for _, s := range names {
		rep := find(s)
		out.ClusterOf[s] = rep
		if rep == s {
			out.weights[s] = 1
		} else {
			out.weights[s] = cfg.CopierWeight
		}
	}
	return out
}

func sameValueSet(a, b map[string]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// refValue and refItem are the claim matrix as the reference keeps it: the
// raw confidences, one slice per row.
type refValue struct {
	claimed []bool
	conf    []float64
}

type refItem struct {
	covering []int
	values   []refValue
	probs    []float64
}

// referenceMultiTruthFuse takes two logarithms per (item, value, covering
// source) cell per iteration.
func referenceMultiTruthFuse(m *MultiTruth, c *Claims) *refResult {
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
		for i := range c.SourceNames {
			discount[i] = m.Discount.Weight(i)
		}
	}

	// Precompute every item's covering list and claim matrix once.
	items := make([]refItem, len(c.Items))
	seen := make([]bool, nsrc)
	pos := make([]int, nsrc) // covering position of each source index
	for i, it := range c.Items {
		mi := &items[i]
		for _, vc := range it.Values {
			for _, sc := range vc.Sources {
				if si := srcIdx[c.SourceNames[sc.Source]]; !seen[si] {
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
		mi.values = make([]refValue, len(it.Values))
		mi.probs = make([]float64, len(it.Values))
		for vi, vc := range it.Values {
			v := &mi.values[vi]
			v.claimed = make([]bool, nc)
			v.conf = make([]float64, nc)
			for _, sc := range vc.Sources {
				ci := pos[srcIdx[c.SourceNames[sc.Source]]]
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

	res := &refResult{
		Method:        m.Name(),
		Decisions:     make(map[string]*refDecision, len(c.Items)),
		SourceQuality: make(map[string]float64, nsrc),
	}
	for si, s := range c.SourceNames {
		res.SourceQuality[s] = stats[si].sens
	}
	for i, it := range c.Items {
		mi := &items[i]
		belief := make(map[string]float64, len(it.Values))
		d := &refDecision{Item: it, Belief: belief}
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
		d.Truths = referenceSortedTruths(d.Truths)
		res.Decisions[it.Key()] = d
	}
	return res
}

func referenceSortedTruths(ts []rdf.Term) []rdf.Term {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return ts
}
