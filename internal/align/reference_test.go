package align

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"akb/internal/extract"
	"akb/internal/rdf"
)

// refDetectSynonyms is the all-pairs form detectSynonyms replaced, kept as
// its oracle: every pair of attribute names is tested against every entity
// of the smaller one through nested string maps.
func refDetectSynonyms(stmts []rdf.Statement) map[string]string {
	support := map[string]int{}
	values := map[string]map[string]string{} // attr -> entity -> first value
	for _, s := range stmts {
		attr := extract.AttrFromIRI(s.Predicate)
		entity := extract.AttrFromIRI(s.Subject)
		support[attr]++
		ev := values[attr]
		if ev == nil {
			ev = map[string]string{}
			values[attr] = ev
		}
		if _, ok := ev[entity]; !ok {
			ev[entity] = s.Object.Value
		}
	}
	names := make([]string, 0, len(support))
	for a := range support {
		names = append(names, a)
	}
	sort.Strings(names)

	parent := map[string]string{}
	var find func(string) string
	find = func(a string) string {
		p, ok := parent[a]
		if !ok || p == a {
			parent[a] = a
			return a
		}
		r := find(p)
		parent[a] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	bySig := map[string][]string{}
	for _, a := range names {
		sig := tokenSignature(a)
		bySig[sig] = append(bySig[sig], a)
	}
	for _, group := range bySig {
		for i := 1; i < len(group); i++ {
			union(group[0], group[i])
		}
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := names[i], names[j]
			if find(a) == find(b) {
				continue
			}
			shared, agree := 0, 0
			va, vb := values[a], values[b]
			if len(vb) < len(va) {
				va, vb = vb, va
			}
			for e, v := range va {
				if w, ok := vb[e]; ok {
					shared++
					if v == w {
						agree++
					}
				}
			}
			if shared >= minSharedEntities &&
				float64(agree)/float64(shared) >= minValueAgreement {
				union(a, b)
			}
		}
	}
	clusters := map[string][]string{}
	for _, a := range names {
		r := find(a)
		clusters[r] = append(clusters[r], a)
	}
	out := map[string]string{}
	for _, members := range clusters {
		if len(members) < 2 {
			continue
		}
		canon := members[0]
		for _, m := range members[1:] {
			if support[m] > support[canon] ||
				(support[m] == support[canon] && (len(m) < len(canon) || (len(m) == len(canon) && m < canon))) {
				canon = m
			}
		}
		for _, m := range members {
			if m != canon {
				out[m] = canon
			}
		}
	}
	return out
}

// refDetectSubAttributes is the all-pairs form DetectSubAttributes replaced,
// kept as its oracle.
func refDetectSubAttributes(attrs []string) map[string]string {
	tokens := make(map[string]map[string]bool, len(attrs))
	for _, a := range attrs {
		set := map[string]bool{}
		for _, t := range strings.Fields(a) {
			set[t] = true
		}
		tokens[a] = set
	}
	sorted := append([]string(nil), attrs...)
	sort.Strings(sorted)
	out := map[string]string{}
	for _, sub := range sorted {
		var best string
		for _, parent := range sorted {
			if parent == sub || len(tokens[parent]) >= len(tokens[sub]) {
				continue
			}
			contained := true
			for t := range tokens[parent] {
				if !tokens[sub][t] {
					contained = false
					break
				}
			}
			if !contained {
				continue
			}
			if best == "" || len(tokens[parent]) < len(tokens[best]) ||
				(len(tokens[parent]) == len(tokens[best]) && parent < best) {
				best = parent
			}
		}
		if best != "" {
			out[sub] = best
		}
	}
	return out
}

// genAttrName draws names from a small vocabulary so that token overlap,
// equal signatures ("rate of growth" / "growth rate"), repeated tokens and
// strict containment chains are all common.
func genAttrName(r *rand.Rand) string {
	words := []string{"rate", "growth", "total", "urban", "population", "area", "of", "the", "date", "release"}
	n := 1 + r.Intn(4)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = words[r.Intn(len(words))]
	}
	return strings.Join(parts, " ")
}

// genStatements builds a corpus where some attribute names shadow others
// (same values on the same entities, with a tunable disagreement rate), so
// value-agreement merges, near misses around both thresholds, and chains of
// merges through a third name all occur.
func genStatements(r *rand.Rand, nAttrs, nEntities int) []rdf.Statement {
	attrs := make([]string, nAttrs)
	for i := range attrs {
		attrs[i] = genAttrName(r)
	}
	var stmts []rdf.Statement
	for e := 0; e < nEntities; e++ {
		entity := fmt.Sprintf("Entity %d", e)
		base := map[int]string{}
		for k, n := 0, 1+r.Intn(nAttrs); k < n; k++ {
			a := r.Intn(nAttrs)
			// Attributes pair up (2i, 2i+1): the odd one copies the even
			// one's value most of the time.
			v := fmt.Sprintf("v%d", r.Intn(6))
			if prev, ok := base[a^1]; ok && r.Intn(10) < 8 {
				v = prev
			}
			if _, ok := base[a]; !ok {
				base[a] = v
			}
			// Repeats of (entity, attr) with another value: only the
			// first counts.
			stmts = append(stmts, st(entity, attrs[a], v, fmt.Sprintf("s%d", r.Intn(3))))
		}
	}
	return stmts
}

// BenchmarkAlignNormalize runs alignment on a corpus shaped like the
// pipeline's: a few hundred attribute names, each entity carrying a couple
// of dozen, several sources per fact.
func BenchmarkAlignNormalize(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	mods := []string{"total", "annual", "official", "former", "current", "average", "gross", "net", "urban", "rural"}
	nouns := []string{"population", "area", "gdp", "rate", "budget", "count", "date", "length", "score", "income",
		"density", "capacity", "revenue", "rating", "volume", "ratio", "price", "fee", "cost", "speed"}
	var attrs []string
	for _, n := range nouns {
		attrs = append(attrs, n)
		for _, m := range mods {
			attrs = append(attrs, m+" "+n, n+" of "+m)
		}
	}
	var stmts []rdf.Statement
	for e := 0; e < 600; e++ {
		entity := fmt.Sprintf("Entity %d", e)
		for k := 0; k < 24; k++ {
			a := attrs[r.Intn(len(attrs))]
			v := fmt.Sprintf("value %d", r.Intn(1000))
			for s, n := 0, 1+r.Intn(3); s < n; s++ {
				stmts = append(stmts, st(entity, a, v, fmt.Sprintf("site%d", s)))
			}
		}
	}
	// Normalize rewrites its input, so every iteration starts from a fresh
	// copy of the corpus.
	work := make([]rdf.Statement, len(stmts))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, stmts)
		Normalize(work)
	}
}
