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

// The alignment heuristics' thresholds.
const (
	// minValueAgreement is the fraction of shared entities on which two
	// attribute names must carry equal values to be merged as synonyms
	// (used for names whose token signatures differ).
	minValueAgreement = 0.8
	// minSharedEntities is the number of entities two names must share
	// before value agreement is meaningful.
	minSharedEntities = 3
	// misspellMaxDistance is the maximum edit distance for a low-support
	// value to be folded into a high-support one.
	misspellMaxDistance = 2
	// misspellSupportRatio is how many times better supported the target
	// value must be.
	misspellSupportRatio = 2
)

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
func DetectSynonyms(stmts []rdf.Statement) map[string]string {
	syn, _, _ := detectSynonyms(stmts, extract.Names{})
	return syn
}

// detectSynonyms is DetectSynonyms recovering names through the caller's n.
// It also returns the attribute names, numbered in order of first sight
// (the numbering changes no cluster), and each statement's attribute.
func detectSynonyms(stmts []rdf.Statement, n extract.Names) (syn map[string]string, names []string, of []int) {
	of = make([]int, len(stmts))
	number := map[string]int{}
	var support []int
	for i, s := range stmts {
		name := n.Of(s.Predicate)
		a, ok := number[name]
		if !ok {
			a = len(names)
			number[name] = a
			names = append(names, name)
			support = append(support, 0)
		}
		support[a]++
		of[i] = a
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
	for i, s := range stmts {
		entity := n.Of(s.Subject)
		e, ok := entityIDs[entity]
		if !ok {
			e = len(byEntity)
			entityIDs[entity] = e
			byEntity = append(byEntity, nil)
		}
		a := of[i]
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
			if shared[b] >= minSharedEntities &&
				float64(agree[b])/float64(shared[b]) >= minValueAgreement {
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
	syn = map[string]string{}
	for _, members := range clusters {
		if len(members) < 2 {
			continue
		}
		canon := members[0]
		for _, m := range members[1:] {
			sm, sc := support[m], support[canon]
			if sm > sc || (sm == sc && (len(names[m]) < len(names[canon]) ||
				(len(names[m]) == len(names[canon]) && names[m] < names[canon]))) {
				canon = m
			}
		}
		for _, m := range members {
			if m != canon {
				syn[names[m]] = names[canon]
			}
		}
	}
	return syn, names, of
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
func CorrectMisspellings(stmts []rdf.Statement) ([]rdf.Statement, int) {
	out := slices.Clone(stmts)
	f := planFolds(out, nil, nil)
	for i := range out {
		f.rewrite(&out[i], i)
	}
	return out, f.folded
}

// folds is a plan of misspelling folds: each statement's value and the
// value, if any, that it folds into.
type folds struct {
	values  []foldValue
	valueOf []int32 // statement -> its value
	folded  int     // statements whose value folds
}

type foldValue struct {
	text    string
	support int32
	next    int32 // the item's next value, or -1
	to      int32 // the value it folds into, or -1
}

// rewrite writes statement i's folded value into s, if it has one.
func (f *folds) rewrite(s *rdf.Statement, i int) {
	if to := f.values[f.valueOf[i]].to; to >= 0 {
		s.Object = rdf.Literal(f.values[to].text)
	}
}

// planFolds plans the misspelling folds over stmts without writing them.
// Items are keyed by (subject, predicate), where a statement's predicate is
// iri[of[i]] when that is set (a synonym rewrite not yet written) and its own
// otherwise; of may be nil.
func planFolds(stmts []rdf.Statement, of []int, iri []rdf.Term) folds {
	// Number the items by their (subject, predicate) terms and each item's
	// distinct values on first sight. An item's values are a short list
	// threaded through one slice.
	type item struct{ subject, predicate rdf.Term }
	itemNo := map[item]int{}
	var first []int32 // item -> its first value
	f := folds{values: make([]foldValue, 0, len(stmts)), valueOf: make([]int32, len(stmts))}
	for i, s := range stmts {
		key := item{s.Subject, s.Predicate}
		if of != nil && iri[of[i]] != (rdf.Term{}) {
			key.predicate = iri[of[i]]
		}
		no, ok := itemNo[key]
		if !ok {
			no = len(first)
			itemNo[key] = no
			first = append(first, -1)
		}
		v := first[no]
		for v >= 0 && f.values[v].text != s.Object.Value {
			v = f.values[v].next
		}
		if v < 0 {
			v = int32(len(f.values))
			f.values = append(f.values, foldValue{text: s.Object.Value, next: first[no], to: -1})
			first[no] = v
		}
		f.values[v].support++
		f.valueOf[i] = v
	}
	// Each value folds into the best-supported one within reach, ties to the
	// smaller, unless that is empty.
	values := f.values
	for _, fv := range first {
		for low := fv; low >= 0; low = values[low].next {
			// Numeric values a digit apart are genuine conflicts, not
			// typos; leave them for fusion to resolve.
			if mostlyDigits(values[low].text) {
				continue
			}
			best := int32(-1)
			for high := fv; high >= 0; high = values[high].next {
				h := values[high]
				if high == low || float64(h.support) < float64(values[low].support)*misspellSupportRatio ||
					!extract.WithinDistance(values[low].text, h.text, misspellMaxDistance) {
					continue
				}
				if best < 0 || h.support > values[best].support || (h.support == values[best].support && h.text < values[best].text) {
					best = high
				}
			}
			if best >= 0 && values[best].text != "" {
				values[low].to = best
				f.folded += int(values[low].support)
			}
		}
	}
	return f
}

// Normalize applies synonym merging and misspelling correction to the
// statements, rewriting them in place and returning them with a report.
// Both rewrites are planned before the first write, so a panic leaves stmts
// as they were. Sub-attribute relations are detected and reported but values
// are left in place (a sub-attribute is a distinct, more specific attribute,
// not a duplicate).
func Normalize(stmts []rdf.Statement) ([]rdf.Statement, Report) {
	n := extract.Names{}
	syn, names, of := detectSynonyms(stmts, n)
	rep := Report{Synonyms: syn}
	// A variant's statements take its canonical name's IRI; the output's
	// attributes are the names the statements then carry (duplicates are
	// dropped by DetectSubAttributes).
	iri := make([]rdf.Term, len(names))
	attrs := slices.Clone(names)
	for a, name := range names {
		if canon, ok := syn[name]; ok {
			iri[a] = extract.AttrIRI(canon)
			attrs[a] = n.Of(iri[a])
		}
	}
	f := planFolds(stmts, of, iri)
	rep.CorrectedValues = f.folded
	rep.SubAttributes = DetectSubAttributes(attrs)
	for i, a := range of {
		if iri[a] != (rdf.Term{}) {
			stmts[i].Predicate = iri[a]
		}
		f.rewrite(&stmts[i], i)
	}
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
