// Package align implements the normalisation step the paper places at the
// start of the fusion phase: "the misspellings, synonyms, and sub-attributes
// are identified at this stage". It detects attribute synonyms (the same
// logical attribute surfacing under different names on different sites),
// corrects misspelled values against their well-supported variants, and
// identifies sub-attribute relations between attribute names. Fusion runs
// on the normalised statements; without alignment, synonym attributes split
// items and misspellings split votes.
package align

import (
	"slices"
	"sort"
	"strings"

	"akb/internal/extract"
	"akb/internal/rdf"
)

// Config tunes the alignment heuristics.
type Config struct {
	// MinValueAgreement is the fraction of shared entities on which two
	// attribute names must carry equal values to be merged as synonyms
	// (used for names whose token signatures differ).
	MinValueAgreement float64
	// MinSharedEntities is the number of entities two names must share
	// before value agreement is meaningful.
	MinSharedEntities int
	// MisspellMaxDistance is the maximum edit distance for a low-support
	// value to be folded into a high-support one.
	MisspellMaxDistance int
	// MisspellSupportRatio is how many times better supported the target
	// value must be.
	MisspellSupportRatio float64
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{
		MinValueAgreement:    0.8,
		MinSharedEntities:    3,
		MisspellMaxDistance:  2,
		MisspellSupportRatio: 2,
	}
}

// Report summarises what alignment changed.
type Report struct {
	// Synonyms maps merged attribute names to their canonical name.
	Synonyms map[string]string
	// SubAttributes maps sub-attribute names to their parent attribute.
	SubAttributes map[string]string
	// CorrectedValues counts misspelled value occurrences folded.
	CorrectedValues int
}

// tokenSignature canonicalises an attribute name to an order-insensitive
// token signature, dropping connective words: "date of release" and
// "release date" share the signature "date release".
func tokenSignature(attr string) string {
	fields := strings.Fields(attr)
	kept := fields[:0]
	for _, f := range fields {
		switch f {
		case "of", "the", "a", "an":
		default:
			kept = append(kept, f)
		}
	}
	sort.Strings(kept)
	return strings.Join(kept, " ")
}

// DetectSynonyms finds attribute names that denote the same attribute.
// Two signals are combined:
//
//  1. equal token signatures ("release date" ~ "date of release");
//  2. different signatures but (nearly) always equal values on shared
//     entities.
//
// The returned map sends every non-canonical variant to the canonical name
// (the variant with the most supporting statements, ties to the shorter
// then lexicographically smaller name).
func DetectSynonyms(stmts []rdf.Statement, cfg Config) map[string]string {
	if cfg.MinValueAgreement <= 0 {
		cfg.MinValueAgreement = 0.8
	}
	if cfg.MinSharedEntities <= 0 {
		cfg.MinSharedEntities = 3
	}
	support := map[string]int{}
	for _, s := range stmts {
		support[extract.AttrFromIRI(s.Predicate)]++
	}
	names := make([]string, 0, len(support))
	for a := range support {
		names = append(names, a)
	}
	sort.Strings(names)
	// Attribute names are handled by their rank in names from here on.
	rank := make(map[string]int, len(names))
	for i, a := range names {
		rank[a] = i
	}

	parent := make([]int, len(names))
	for i := range parent {
		parent[i] = i
	}
	find := func(a int) int {
		for parent[a] != a {
			parent[a] = parent[parent[a]]
			a = parent[a]
		}
		return a
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	// Signal 1: identical token signatures.
	bySig := map[string]int{}
	for i, a := range names {
		sig := tokenSignature(a)
		if first, ok := bySig[sig]; ok {
			union(first, i)
		} else {
			bySig[sig] = i
		}
	}

	// Signal 2: value agreement on shared entities. Two names can only
	// share an entity they both occur on, so instead of testing every pair
	// of names against every entity, walk each name's entities and count,
	// per co-occurring name, the entities shared and the values agreed.
	// Pairs that never meet have shared == 0 and could not have merged.
	type attrValue struct {
		attr  int
		value string // the first value seen for (attr, entity)
	}
	var byEntity [][]attrValue // entity -> the names it occurs under
	byAttr := make([][]int, len(names))
	entityIDs := map[string]int{}
	for _, s := range stmts {
		entity := extract.AttrFromIRI(s.Subject)
		e, ok := entityIDs[entity]
		if !ok {
			e = len(byEntity)
			entityIDs[entity] = e
			byEntity = append(byEntity, nil)
		}
		a := rank[extract.AttrFromIRI(s.Predicate)]
		if slices.ContainsFunc(byEntity[e], func(av attrValue) bool { return av.attr == a }) {
			continue // only the first value of (attr, entity) counts
		}
		byEntity[e] = append(byEntity[e], attrValue{a, s.Object.Value})
		byAttr[a] = append(byAttr[a], e)
	}
	shared := make([]int, len(names))
	agree := make([]int, len(names))
	var met []int // names with shared > 0 for the current a
	for a := range names {
		for _, e := range byAttr[a] {
			var va string
			for _, av := range byEntity[e] {
				if av.attr == a {
					va = av.value
					break
				}
			}
			for _, av := range byEntity[e] {
				if av.attr <= a {
					continue
				}
				if shared[av.attr] == 0 {
					met = append(met, av.attr)
				}
				shared[av.attr]++
				if av.value == va {
					agree[av.attr]++
				}
			}
		}
		for _, b := range met {
			if shared[b] >= cfg.MinSharedEntities &&
				float64(agree[b])/float64(shared[b]) >= cfg.MinValueAgreement {
				union(a, b)
			}
			shared[b], agree[b] = 0, 0
		}
		met = met[:0]
	}

	// Pick canonical representatives per cluster.
	clusters := make([][]int, len(names))
	for i := range names {
		r := find(i)
		clusters[r] = append(clusters[r], i)
	}
	out := map[string]string{}
	for _, members := range clusters {
		if len(members) < 2 {
			continue
		}
		canon := members[0]
		for _, m := range members[1:] {
			sm, sc := support[names[m]], support[names[canon]]
			if sm > sc || (sm == sc && (len(names[m]) < len(names[canon]) ||
				(len(names[m]) == len(names[canon]) && names[m] < names[canon]))) {
				canon = m
			}
		}
		for _, m := range members {
			if m != canon {
				out[names[m]] = names[canon]
			}
		}
	}
	return out
}

// DetectSubAttributes identifies name-level sub-attribute relations: an
// attribute whose token set strictly contains another attribute's tokens is
// its sub-attribute ("total urban population" ⊂ "population"). Each
// sub-attribute maps to its most general parent.
func DetectSubAttributes(attrs []string) map[string]string {
	sorted := append([]string(nil), attrs...)
	sort.Strings(sorted)
	sorted = slices.Compact(sorted)
	// Distinct tokens per attribute, and for each token the attributes
	// (by rank in sorted) that carry it: a parent's tokens all occur in the
	// sub-attribute, so only attributes sharing a token with it can qualify.
	tokens := make([][]string, len(sorted))
	byToken := map[string][]int{}
	for i, a := range sorted {
		fields := strings.Fields(a)
		sort.Strings(fields)
		tokens[i] = slices.Compact(fields)
		for _, t := range tokens[i] {
			byToken[t] = append(byToken[t], i)
		}
	}
	out := map[string]string{}
	hits := make([]int, len(sorted)) // tokens of the current sub each attribute carries
	var touched []int
	for sub, name := range sorted {
		for _, t := range tokens[sub] {
			for _, p := range byToken[t] {
				if hits[p] == 0 {
					touched = append(touched, p)
				}
				hits[p]++
			}
		}
		best := -1
		for _, p := range touched {
			// Contained: every token of p is one of sub's, and p has fewer.
			contained := hits[p] == len(tokens[p]) && len(tokens[p]) < len(tokens[sub])
			hits[p] = 0
			if !contained {
				continue
			}
			// Most general parent: fewest tokens, then lexicographic.
			if best < 0 || len(tokens[p]) < len(tokens[best]) ||
				(len(tokens[p]) == len(tokens[best]) && p < best) {
				best = p
			}
		}
		touched = touched[:0]
		if best >= 0 {
			out[name] = sorted[best]
		}
	}
	return out
}

// CorrectMisspellings folds, within each (entity, attribute) item,
// low-support values lying within a small edit distance of a much better
// supported value. It returns rewritten statements and the fold count.
func CorrectMisspellings(stmts []rdf.Statement, cfg Config) ([]rdf.Statement, int) {
	if cfg.MisspellMaxDistance <= 0 {
		cfg.MisspellMaxDistance = 2
	}
	if cfg.MisspellSupportRatio <= 0 {
		cfg.MisspellSupportRatio = 2
	}
	// Count support per (item, value).
	type itemVal struct {
		item  string
		value string
	}
	support := map[itemVal]int{}
	itemValues := map[string]map[string]int{}
	for _, s := range stmts {
		ik := s.ItemKey()
		support[itemVal{ik, s.Object.Value}]++
		m := itemValues[ik]
		if m == nil {
			m = map[string]int{}
			itemValues[ik] = m
		}
		m[s.Object.Value]++
	}
	// Build per-item correction maps.
	corrections := map[itemVal]string{}
	for ik, vals := range itemValues {
		names := make([]string, 0, len(vals))
		for v := range vals {
			names = append(names, v)
		}
		sort.Strings(names)
		for _, low := range names {
			// Numeric values a digit apart are genuine conflicts, not
			// typos; leave them for fusion to resolve.
			if mostlyDigits(low) {
				continue
			}
			lowN := vals[low]
			var best string
			bestN := 0
			for _, high := range names {
				highN := vals[high]
				if high == low || float64(highN) < float64(lowN)*cfg.MisspellSupportRatio {
					continue
				}
				if editDistance(low, high) > cfg.MisspellMaxDistance {
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

// Normalize applies synonym merging and misspelling correction to the
// statements, returning the rewritten statements and a report. Sub-attribute
// relations are detected and reported but values are left in place (a
// sub-attribute is a distinct, more specific attribute, not a duplicate).
func Normalize(stmts []rdf.Statement, cfg Config) ([]rdf.Statement, Report) {
	rep := Report{}
	rep.Synonyms = DetectSynonyms(stmts, cfg)
	if len(rep.Synonyms) > 0 {
		rewritten := make([]rdf.Statement, len(stmts))
		for i, s := range stmts {
			attr := extract.AttrFromIRI(s.Predicate)
			if canon, ok := rep.Synonyms[attr]; ok {
				s.Predicate = extract.AttrIRI(canon)
			}
			rewritten[i] = s
		}
		stmts = rewritten
	}
	var folded int
	stmts, folded = CorrectMisspellings(stmts, cfg)
	rep.CorrectedValues = folded

	attrSet := map[string]bool{}
	for _, s := range stmts {
		attrSet[extract.AttrFromIRI(s.Predicate)] = true
	}
	attrs := make([]string, 0, len(attrSet))
	for a := range attrSet {
		attrs = append(attrs, a)
	}
	rep.SubAttributes = DetectSubAttributes(attrs)
	return stmts, rep
}

// mostlyDigits reports whether more than half the characters are digits.
func mostlyDigits(s string) bool {
	if s == "" {
		return false
	}
	d := 0
	for _, r := range s {
		if r >= '0' && r <= '9' {
			d++
		}
	}
	return d*2 > len(s)
}

// editDistance is the rune-level Levenshtein distance.
func editDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
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
			m := prev[j] + 1
			if cur[j-1]+1 < m {
				m = cur[j-1] + 1
			}
			if prev[j-1]+cost < m {
				m = prev[j-1] + cost
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}
