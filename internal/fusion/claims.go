// Package fusion implements knowledge fusion: resolving conflicts among the
// multi-source, multi-extractor statements produced by the extraction phase.
// It provides the three baselines the paper adopts from Dong et al.
// (VLDB'14) — VOTE, ACCU, POPACCU — plus the techniques the paper proposes
// to add on top:
//
//   - multi-truth fusion with per-source sensitivity/specificity (after
//     Zhao et al.'s latent truth model), handling non-functional attributes;
//   - hierarchical value spaces (Wuhan ⊂ China both true);
//   - inter-source copy-correlation detection with vote discounting (after
//     Dong et al., PVLDB 2010);
//   - leveraging extractor confidence scores (after Pasternack & Roth).
//
// The data is positional from claims to result. BuildClaims puts items in
// key order — it groups the statements by their item keys, compared as
// rdf.Triple.ItemKey spells them but never built — and an item's values in
// term order, and numbers the sources in name order; a Result's
// Decisions[i] decides Items[i], a Decision's Belief[k] is the belief in
// Values[k], and SourceQuality[n] — like the clusters and the vote weights
// of Correlations, and every per-source quantity a method keeps while it
// runs — is about SourceNames[n].
//
// Items are independent given the source-quality estimates, so every
// method computes its per-item step as a parallel map (internal/mapreduce)
// and updates source quality serially over the results, as the
// knowledge-fusion literature's MapReduce formulation does.
package fusion

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"akb/internal/rdf"
)

// Granularity selects what counts as a "source" during fusion.
type Granularity uint8

const (
	// BySource treats each Web source (site, KB, corpus host) as a source.
	BySource Granularity = iota
	// BySourceExtractor treats each (source, extractor) pair as a source —
	// the finer provenance granularity Dong et al. found beneficial.
	BySourceExtractor
	// ByExtractor treats each extractor as one big source, the coarse
	// granularity Pochampally et al. use.
	ByExtractor
)

// SourceClaim is one source's assertion of a value.
type SourceClaim struct {
	// Source is the source's number: its index in the SourceNames of the
	// Claims the assertion belongs to.
	Source int32
	// Confidence is the extractor-assigned confidence (max across
	// duplicate statements from the same source).
	Confidence float64
}

// weight is what the claim counts for where a method weighs claims by
// confidence: the confidence, or 0.5 for a claim without one. No claim from
// BuildClaims or from the hierarchy fold reaches that branch — both produce
// confidences in (0, 1] — only hand-built claims do.
func (sc SourceClaim) weight() float64 {
	if sc.Confidence <= 0 {
		return 0.5
	}
	return sc.Confidence
}

// ValueClaims groups the assertions of a single value of one item.
type ValueClaims struct {
	Value   rdf.Term
	Sources []SourceClaim
}

// SupportCount returns the number of asserting sources.
func (v *ValueClaims) SupportCount() int { return len(v.Sources) }

// Item is one data item (subject, predicate) with its claimed values.
type Item struct {
	Subject   rdf.Term
	Predicate rdf.Term
	Values    []*ValueClaims
}

// Key returns the item's key, rdf.Triple.ItemKey of its subject and
// predicate, spelled on each call: no item keeps it.
func (it *Item) Key() string {
	return rdf.Triple{Subject: it.Subject, Predicate: it.Predicate}.ItemKey()
}

// Value returns the claims for a specific value, or nil.
func (it *Item) Value(v rdf.Term) *ValueClaims {
	if k := it.index(v); k >= 0 {
		return it.Values[k]
	}
	return nil
}

// index returns the place of a value among Values, or -1.
func (it *Item) index(v rdf.Term) int {
	for k, vc := range it.Values {
		if vc.Value == v {
			return k
		}
	}
	return -1
}

// Claims is the fusion input: all data items with their claimed values.
type Claims struct {
	Items []*Item
	// SourceNames lists every distinct source in sorted order: a source's
	// number is its place here, so number order is name order.
	SourceNames []string
}

// checkSources panics unless every claim's source is one of SourceNames: a
// number out of range would otherwise fail, or be counted for another
// source, deep inside a method's loop.
func (c *Claims) checkSources() {
	for _, it := range c.Items {
		for _, vc := range it.Values {
			for _, sc := range vc.Sources {
				if sc.Source < 0 || int(sc.Source) >= len(c.SourceNames) {
					panic(fmt.Sprintf("fusion: %s: claim of %v by source %d, the claims name %d sources",
						it.Key(), vc.Value, sc.Source, len(c.SourceNames)))
				}
			}
		}
	}
}

// NumClaims returns the total number of (item, value, source) assertions.
func (c *Claims) NumClaims() int {
	n := 0
	for _, it := range c.Items {
		for _, vc := range it.Values {
			n += len(vc.Sources)
		}
	}
	return n
}

// BuildClaims groups statements into items and values at the chosen source
// granularity. Output ordering is deterministic — items by key, values by
// term order, sources by name — and independent of statement order: item
// keys, value terms and source names alone determine it, and duplicate
// (item, value, source) assertions keep only the maximum confidence (an
// order-free reduction). A confidence above 1 counts as 1, so no method
// downstream is handed an exponent or a weight outside (0, 1]; a statement
// whose confidence is not above 0 (unscored, negative, NaN) names its value
// and adds no source to it.
//
// No item key is spelled. One sort puts the statements' positions in item
// key order (rdf.CompareItemKeys, ties by position), and a run of equal keys
// is an item's bucket; each bucket is sorted by (value, source) and read off
// as runs — an item has a handful of statements — and the items, the value
// claims and the source claims are each cut from one array. One map probe a
// statement finds its source.
func BuildClaims(stmts []rdf.Statement, g Granularity) *Claims {
	if len(stmts) == 0 {
		return &Claims{}
	}
	srcOf := make(map[rdf.Provenance]int32)
	var srcNames []string
	// Per statement, as a number: its source, or -1 when it adds none.
	src := make([]int32, len(stmts))
	for i := range stmts {
		s := &stmts[i]
		src[i] = -1
		if s.Confidence > 0 {
			id := sourceIdentity(s.Provenance, g)
			sn, ok := srcOf[id]
			if !ok {
				sn = int32(len(srcNames))
				srcOf[id] = sn
				srcNames = append(srcNames, sourceName(id, g))
			}
			src[i] = sn
		}
	}

	// A source's number becomes its place among the sorted names, so number
	// order is name order. Two identities can spell one name ("a+b","c" and
	// "a","b+c"): one source.
	out := &Claims{SourceNames: slices.Clone(srcNames)}
	slices.Sort(out.SourceNames)
	out.SourceNames = slices.Compact(out.SourceNames)
	place := make([]int32, len(srcNames))
	for sn, name := range srcNames {
		p, _ := slices.BinarySearch(out.SourceNames, name)
		place[sn] = int32(p)
	}
	for i, sn := range src {
		if sn >= 0 {
			src[i] = place[sn]
		}
	}

	// The statements' positions in item-key order, each item's bucket a run
	// of equal keys. Two (subject, predicate) pairs can spell one key
	// ("a|ib","c" and "a","b|ic"): one item, under the terms of the first
	// statement that spelled it.
	order := make([]int32, len(stmts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := rdf.CompareItemKeys(&stmts[a].Triple, &stmts[b].Triple); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	newItem := func(k int) bool {
		return k == 0 || rdf.CompareItemKeys(&stmts[order[k-1]].Triple, &stmts[order[k]].Triple) != 0
	}
	nItems := 0
	for k := range order {
		if newItem(k) {
			nItems++
		}
	}
	// Bucket k is order[start[k]:start[k+1]].
	items := make([]Item, nItems)
	start := make([]int32, 0, nItems+1)
	for k, i := range order {
		if newItem(k) {
			s := &stmts[i]
			items[len(start)] = Item{Subject: s.Subject, Predicate: s.Predicate}
			start = append(start, int32(k))
		}
	}
	start = append(start, int32(len(order)))

	// Sort every bucket by (value, source) and count the runs: a run of one
	// value is a ValueClaims, a run of one source within it a SourceClaim.
	newValue := func(bucket []int32, k int) bool {
		return k == 0 || stmts[bucket[k]].Object != stmts[bucket[k-1]].Object
	}
	newClaim := func(bucket []int32, k int, freshValue bool) bool {
		return src[bucket[k]] >= 0 && (freshValue || src[bucket[k]] != src[bucket[k-1]])
	}
	nValues, nClaims := 0, 0
	for k := range items {
		bucket := order[start[k]:start[k+1]]
		slices.SortFunc(bucket, func(a, b int32) int {
			if c := stmts[a].Object.Compare(stmts[b].Object); c != 0 {
				return c
			}
			return cmp.Compare(src[a], src[b])
		})
		for j := range bucket {
			fresh := newValue(bucket, j)
			if fresh {
				nValues++
			}
			if newClaim(bucket, j, fresh) {
				nClaims++
			}
		}
	}

	values := make([]ValueClaims, 0, nValues)
	valuePtrs := make([]*ValueClaims, 0, nValues)
	claims := make([]SourceClaim, 0, nClaims)
	out.Items = make([]*Item, len(items))
	for k := range items {
		bucket := order[start[k]:start[k+1]]
		firstValue, firstClaim := len(values), len(claims)
		for j, i := range bucket {
			fresh := newValue(bucket, j)
			if fresh {
				values = append(values, ValueClaims{Value: stmts[i].Object})
				valuePtrs = append(valuePtrs, &values[len(values)-1])
				firstClaim = len(claims)
			}
			if src[i] < 0 {
				continue
			}
			conf := math.Min(stmts[i].Confidence, 1)
			if newClaim(bucket, j, fresh) {
				claims = append(claims, SourceClaim{Source: src[i], Confidence: conf})
				values[len(values)-1].Sources = claims[firstClaim:len(claims):len(claims)]
			} else if last := &claims[len(claims)-1]; conf > last.Confidence {
				last.Confidence = conf
			}
		}
		items[k].Values = valuePtrs[firstValue:len(values):len(values)]
		out.Items[k] = &items[k]
	}
	return out
}

// sourceIdentity is the part of a provenance that tells two sources apart at
// a granularity: the fields the granularity ignores are left empty.
func sourceIdentity(p rdf.Provenance, g Granularity) rdf.Provenance {
	switch g {
	case BySourceExtractor:
		return rdf.Provenance{Source: p.Source, Extractor: p.Extractor}
	case ByExtractor:
		return rdf.Provenance{Extractor: p.Extractor}
	default:
		return rdf.Provenance{Source: p.Source}
	}
}

func sourceName(p rdf.Provenance, g Granularity) string {
	switch g {
	case BySourceExtractor:
		return p.Source + "+" + p.Extractor
	case ByExtractor:
		return p.Extractor
	default:
		return p.Source
	}
}

// Decision is the fused outcome for one item.
type Decision struct {
	Item *Item
	// Truths are the accepted values. Single-truth methods return exactly
	// one (when any value was claimed); multi-truth methods may return
	// several; hierarchy-aware fusion may add implied generalisations.
	Truths []rdf.Term
	// Belief[k] is the method's belief that Item.Values[k] is true. All the
	// decisions of one Fuse cut their beliefs from one array.
	Belief []float64
	// Implied are the truths hierarchy-aware fusion added: generalisations
	// some source claimed of a value the base method accepted. Each carries
	// the belief of the accepted value that implied it and the number of
	// sources that claimed the generalisation itself. Most are not among
	// Item.Values — the fold gave their claims to a descendant; one that is
	// (the base method weighed and rejected it) has that belief written
	// over its own in Belief too, so either way of reading it agrees.
	Implied []Implied
}

// Implied is one implied truth of a Decision.
type Implied struct {
	Value  rdf.Term
	Belief float64
	// Sources is the number of distinct sources that claimed Value for the
	// item before the fold.
	Sources int
}

// Accepted reports whether the decision accepts the value.
func (d *Decision) Accepted(v rdf.Term) bool {
	return slices.Contains(d.Truths, v)
}

// Support returns the decision's belief in a value — one the item's sources
// claimed or one the hierarchy implied — and the number of sources that
// claimed it; ok is false for a value that is neither.
func (d *Decision) Support(v rdf.Term) (belief float64, sources int, ok bool) {
	if k := d.Item.index(v); k >= 0 {
		return d.Belief[k], len(d.Item.Values[k].Sources), true
	}
	for _, imp := range d.Implied {
		if imp.Value == v {
			return imp.Belief, imp.Sources, true
		}
	}
	return 0, 0, false
}

// mostBelieved returns the claimed value of the highest belief, the smaller
// term where two tie; ok is false when no value has a belief of 0 or more.
func (d *Decision) mostBelieved() (best rdf.Term, ok bool) {
	bestB := -1.0
	for k, vc := range d.Item.Values {
		if b := d.Belief[k]; b > bestB || (b == bestB && vc.Value.Compare(best) < 0) {
			best, bestB = vc.Value, b
		}
	}
	return best, bestB >= 0
}

// newDecisions returns one decision per item, in item order, with no truth
// yet and its beliefs, all zero, cut from one array. Every method starts
// here, so this is where claims that misnumber a source are refused.
func newDecisions(c *Claims) []Decision {
	c.checkSources()
	n := 0
	for _, it := range c.Items {
		n += len(it.Values)
	}
	beliefs := make([]float64, n)
	ds := make([]Decision, len(c.Items))
	for i, it := range c.Items {
		nv := len(it.Values)
		ds[i].Item, ds[i].Belief = it, beliefs[:nv:nv]
		beliefs = beliefs[nv:]
	}
	return ds
}

// acceptMostBelieved makes every decision accept its most believed value,
// the single truths cut from one array.
func acceptMostBelieved(ds []Decision) {
	truths := make([]rdf.Term, len(ds))
	for i := range ds {
		if best, ok := ds[i].mostBelieved(); ok {
			truths[i] = best
			ds[i].Truths = truths[i : i+1 : i+1]
		}
	}
}

// Result is a fusion method's output over all items.
type Result struct {
	Method string
	// Decisions[i] decides the claims' Items[i]: the decisions are in item
	// order, which is item-key order.
	Decisions []Decision
	// SourceQuality[n] is the method's final quality estimate for source n,
	// the claims' SourceNames[n] (accuracy for single-truth methods,
	// sensitivity for multi-truth, trust for the fact-finders); nil when the
	// method estimates none (VOTE).
	SourceQuality []float64
}

// Decision returns the decision for an item key, or nil. The items' keys
// are compared with it as rdf.Triple.ItemKey would spell them, unspelled.
func (r *Result) Decision(key string) *Decision {
	i, ok := slices.BinarySearchFunc(r.Decisions, key, func(d Decision, key string) int {
		return rdf.Triple{Subject: d.Item.Subject, Predicate: d.Item.Predicate}.CompareItemKey(key)
	})
	if !ok {
		return nil
	}
	return &r.Decisions[i]
}

// NumTruths returns the number of accepted (item, value) pairs over all
// decisions — the size of the fused KB in triples.
func (r *Result) NumTruths() int {
	n := 0
	for i := range r.Decisions {
		n += len(r.Decisions[i].Truths)
	}
	return n
}

// Method is a knowledge-fusion algorithm.
type Method interface {
	// Name identifies the method in reports.
	Name() string
	// Fuse resolves the claims into per-item decisions.
	Fuse(c *Claims) *Result
}

// sortedTruths orders accepted values deterministically.
func sortedTruths(ts []rdf.Term) []rdf.Term {
	slices.SortFunc(ts, rdf.Term.Compare)
	return ts
}
