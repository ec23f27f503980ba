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
// Items are independent given the source-quality estimates, so every
// method computes its per-item step as a parallel map (internal/mapreduce)
// and updates source quality serially over the results, as the
// knowledge-fusion literature's MapReduce formulation does.
package fusion

import (
	"sort"

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
	// Source is the source identity at the chosen granularity.
	Source string
	// Confidence is the extractor-assigned confidence (max across
	// duplicate statements from the same source).
	Confidence float64
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
	Key       string
	Subject   rdf.Term
	Predicate rdf.Term
	Values    []*ValueClaims
}

// Value returns the claims for a specific value, or nil.
func (it *Item) Value(v rdf.Term) *ValueClaims {
	for _, vc := range it.Values {
		if vc.Value == v {
			return vc
		}
	}
	return nil
}

// Claims is the fusion input: all data items with their claimed values.
type Claims struct {
	Items []*Item
	// SourceNames lists every distinct source in sorted order.
	SourceNames []string
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

// valueKey identifies one claimed value of one item while claims are built.
type valueKey struct {
	item  string
	value string
}

// BuildClaims groups statements into items and values at the chosen source
// granularity. Output ordering is deterministic — items by key, values by
// term order, sources by name — and independent of statement order: item
// keys, value terms and source names alone determine it, and duplicate
// (item, value, source) assertions keep only the maximum confidence (an
// order-free reduction).
func BuildClaims(stmts []rdf.Statement, g Granularity) *Claims {
	items := map[string]*Item{}
	values := map[valueKey]*ValueClaims{}
	srcConf := map[valueKey]map[string]float64{}
	for _, s := range stmts {
		ik := s.ItemKey()
		it, ok := items[ik]
		if !ok {
			it = &Item{Key: ik, Subject: s.Subject, Predicate: s.Predicate}
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
		if s.Confidence > m[src] {
			m[src] = s.Confidence
		}
	}

	out := &Claims{}
	srcSet := map[string]struct{}{}
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
				vc.Sources = append(vc.Sources, SourceClaim{Source: s, Confidence: m[s]})
				srcSet[s] = struct{}{}
			}
		}
		out.Items = append(out.Items, it)
	}
	for s := range srcSet {
		out.SourceNames = append(out.SourceNames, s)
	}
	sort.Strings(out.SourceNames)
	return out
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
	// Belief maps value keys to the method's belief the value is true.
	Belief map[string]float64
}

// Accepted reports whether the decision accepts the value.
func (d *Decision) Accepted(v rdf.Term) bool {
	for _, t := range d.Truths {
		if t == v {
			return true
		}
	}
	return false
}

// Result is a fusion method's output over all items.
type Result struct {
	Method    string
	Decisions map[string]*Decision
	// SourceQuality reports the method's final per-source quality estimate
	// (accuracy for single-truth methods, sensitivity for multi-truth),
	// when the method estimates one.
	SourceQuality map[string]float64
}

// NumTruths returns the number of accepted (item, value) pairs over all
// decisions — the size of the fused KB in triples.
func (r *Result) NumTruths() int {
	n := 0
	for _, d := range r.Decisions {
		n += len(d.Truths)
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
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
	return ts
}
