package align

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"akb/internal/extract"
	"akb/internal/rdf"
)

// refDetectSynonyms is the all-pairs form DetectSynonyms replaced, kept as
// its reference: every pair of attribute names is tested against every
// entity of the smaller one through nested string maps.
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

// refDetectSubAttributes is the all-pairs form DetectSubAttributes replaced.
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

// refCorrectMisspellings is the form CorrectMisspellings replaced: items and
// their values keyed by ItemKey strings, a map of values per item, and the
// full edit-distance table per candidate pair.
func refCorrectMisspellings(stmts []rdf.Statement) ([]rdf.Statement, int) {
	type itemVal struct {
		item  string
		value string
	}
	itemValues := map[string]map[string]int{}
	for _, s := range stmts {
		ik := s.ItemKey()
		m := itemValues[ik]
		if m == nil {
			m = map[string]int{}
			itemValues[ik] = m
		}
		m[s.Object.Value]++
	}
	corrections := map[itemVal]string{}
	for ik, vals := range itemValues {
		names := make([]string, 0, len(vals))
		for v := range vals {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, low := range names {
			if mostlyDigits(low) {
				continue
			}
			lowN := vals[low]
			var best string
			bestN := 0
			for _, high := range names {
				highN := vals[high]
				if high == low || float64(highN) < float64(lowN)*misspellSupportRatio {
					continue
				}
				if refEditDistance(low, high) > misspellMaxDistance {
					continue
				}
				if highN > bestN || (highN == bestN && high < best) {
					best, bestN = high, highN
				}
			}
			if best != "" {
				corrections[itemVal{ik, low}] = best
			}
		}
	}
	if len(corrections) == 0 {
		return stmts, 0
	}
	out := make([]rdf.Statement, len(stmts))
	folded := 0
	for i, s := range stmts {
		if target, ok := corrections[itemVal{s.ItemKey(), s.Object.Value}]; ok {
			s.Object = rdf.Literal(target)
			folded++
		}
		out[i] = s
	}
	return out, folded
}

// refEditDistance is the unbounded rune-level Levenshtein distance.
func refEditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// refNormalize is Normalize as it was, over the reference forms: names
// recovered from IRIs afresh each time, a copy of the statements for the
// synonym rewrite and another for the misspelling fold.
func refNormalize(stmts []rdf.Statement) ([]rdf.Statement, Report) {
	rep := Report{Synonyms: refDetectSynonyms(stmts)}
	if len(rep.Synonyms) > 0 {
		rewritten := make([]rdf.Statement, len(stmts))
		for i, s := range stmts {
			if canon, ok := rep.Synonyms[extract.AttrFromIRI(s.Predicate)]; ok {
				s.Predicate = extract.AttrIRI(canon)
			}
			rewritten[i] = s
		}
		stmts = rewritten
	}
	stmts, rep.CorrectedValues = refCorrectMisspellings(stmts)
	attrSet := map[string]bool{}
	for _, s := range stmts {
		attrSet[extract.AttrFromIRI(s.Predicate)] = true
	}
	attrs := make([]string, 0, len(attrSet))
	for a := range attrSet {
		attrs = append(attrs, a)
	}
	rep.SubAttributes = refDetectSubAttributes(attrs)
	return stmts, rep
}

// genMisspelt builds items whose values are typos of one another at mixed
// supports: mostly-digit values a digit apart, support ties between two
// targets, counts on either side of and exactly at misspellSupportRatio,
// multi-byte and empty values, and one spelling as a literal and an IRI.
func genMisspelt(r *rand.Rand) []rdf.Statement {
	values := []string{"Michael Curtiz", "Michael Curtis", "Michael Curtiss", "Micheal Curtiz", "1942", "1943", "19a2",
		"Zürich", "Zurich", "Zürick", "", "ab", "abc", "Woody Allen"}
	var stmts []rdf.Statement
	for e, n := 0, 1+r.Intn(4); e < n; e++ {
		entity := fmt.Sprintf("Entity %d", e)
		for _, attr := range []string{"director", "release date"}[:1+r.Intn(2)] {
			for k, m := 0, 1+r.Intn(5); k < m; k++ {
				v := values[r.Intn(len(values))]
				for c, support := 0, 1+r.Intn(6); c < support; c++ {
					s := st(entity, attr, v, fmt.Sprintf("s%d", r.Intn(4)))
					if r.Intn(8) == 0 {
						s.Object = rdf.IRI(v)
					}
					stmts = append(stmts, s)
				}
			}
		}
	}
	r.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	return stmts
}

func TestCorrectMisspellingsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	folds := 0
	for round := 0; round < 300; round++ {
		stmts := genMisspelt(r)
		got, gotN := CorrectMisspellings(stmts)
		want, wantN := refCorrectMisspellings(stmts)
		if gotN != wantN || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: %d folds, want %d\n got  %v\n want %v", round, gotN, wantN, got, want)
		}
		folds += gotN
	}
	if folds == 0 {
		t.Fatal("the generator never produced a fold")
	}
}

func TestNormalizeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for round := 0; round < 300; round++ {
		stmts := append(genStatements(r, 2+r.Intn(10), 1+r.Intn(8)), genMisspelt(r)...)
		got, gotRep := Normalize(slices.Clone(stmts))
		want, wantRep := refNormalize(stmts)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("round %d:\n got  %+v\n want %+v", round, gotRep, wantRep)
		}
	}
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

func TestDetectSynonymsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for round := 0; round < 300; round++ {
		stmts := genStatements(r, 2+r.Intn(14), 1+r.Intn(12))
		got, want := DetectSynonyms(stmts), refDetectSynonyms(stmts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d:\n got  %v\n want %v", round, got, want)
		}
	}
	if got := DetectSynonyms(nil); len(got) != 0 {
		t.Errorf("no statements: synonyms = %v", got)
	}
}

func TestDetectSubAttributesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for round := 0; round < 500; round++ {
		attrs := make([]string, r.Intn(25))
		for i := range attrs {
			attrs[i] = genAttrName(r) // duplicates and repeated tokens included
		}
		got, want := DetectSubAttributes(attrs), refDetectSubAttributes(attrs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d attrs %q:\n got  %v\n want %v", round, attrs, got, want)
		}
	}
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
