package fusion

import (
	"math"
	"sort"

	"akb/internal/rdf"
)

// The oracles of claim grouping and copy detection: BuildClaims and
// DetectCorrelations stated in their plainest form, by built key strings in
// maps and by a walk over every pair of sources. They define the output; the
// tests in reference_match_test.go hold the live code to them exactly. The
// methods answer to their own rules instead (rules_test.go).

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
