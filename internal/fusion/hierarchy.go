package fusion

import (
	"slices"

	"akb/internal/hierarchy"
	"akb/internal/rdf"
)

// Hierarchical wraps a base fusion method with hierarchical value-space
// reasoning — the paper's second fusion bullet. Values of one item that lie
// on a generalisation path (Wuhan ⊂ Hubei ⊂ China) are not conflicting:
//
//   - every claim on a strict generalisation also supports each claimed
//     most-specific descendant (at AncestorWeight discount, since "China"
//     is genuinely ambiguous between Chinese cities);
//   - pure-generalisation values do not compete as candidates themselves —
//     their truth is implied by whichever specific value wins;
//   - after base fusion, claimed generalisations of every accepted value
//     are accepted too (the paper's "(birth place, China) and (birth
//     place, Wuhan) can both be true").
//
// Without this, generalisation claims split the vote and a flat fuser may
// prefer an unrelated-but-better-supported wrong value.
type Hierarchical struct {
	// Base is the underlying fusion method run on the folded claims.
	Base Method
	// Forest is the value hierarchy.
	Forest *hierarchy.Forest
	// AncestorWeight discounts the confidence of ancestor claims folded
	// into a descendant candidate (default 0.7).
	AncestorWeight float64
}

// Name implements Method.
func (h *Hierarchical) Name() string { return h.Base.Name() + "+hier" }

// Fuse implements Method.
func (h *Hierarchical) Fuse(c *Claims) *Result {
	folded, expansions := h.fold(c)
	res := h.Base.Fuse(folded)
	res.Method = h.Name()

	// Expand accepted values with their claimed generalisations. Values are
	// never invented: only generalisations actually claimed by some source
	// are added. The fold keeps the items' places, so decision i has
	// expansions[i] and c.Items[i] is its item before the fold, where a
	// generalisation still has the claims the fold gave to a descendant.
	for i := range res.Decisions {
		claimedAncestors := expansions[i]
		if len(claimedAncestors) == 0 {
			continue
		}
		d := &res.Decisions[i]
		for _, t := range d.Truths {
			if !t.IsLiteral() {
				continue
			}
			for _, anc := range h.Forest.Ancestors(t.Value) {
				if !slices.Contains(claimedAncestors, anc) {
					continue
				}
				at := rdf.Literal(anc)
				if d.Accepted(at) || slices.ContainsFunc(d.Implied, func(imp Implied) bool { return imp.Value == at }) {
					continue
				}
				belief, _, _ := d.Support(t)
				d.Implied = append(d.Implied, Implied{Value: at, Belief: belief, Sources: c.Items[i].Value(at).SupportCount()})
				// A generalisation the base method weighed and rejected (its
				// cluster had sibling branches, so it was not folded away) is
				// believed as what implies it from here on, like any other.
				if k := d.Item.index(at); k >= 0 {
					d.Belief[k] = belief
				}
			}
		}
		truths := slices.Grow(slices.Clip(d.Truths), len(d.Implied))
		for _, imp := range d.Implied {
			truths = append(truths, imp.Value)
		}
		d.Truths = sortedTruths(truths)
	}
	return res
}

// fold rewrites each item's hierarchical values: maximal-specific claimed
// values become the only candidates, each absorbing its claimed ancestors'
// sources at AncestorWeight. It returns the folded claims — item i of them
// is item i of c, folded or as it was — plus, at the same index, the item's
// claimed generalisations for post-fusion expansion.
func (h *Hierarchical) fold(c *Claims) (*Claims, [][]string) {
	aw := h.AncestorWeight
	if aw <= 0 || aw > 1 {
		aw = 0.7
	}
	out := &Claims{SourceNames: c.SourceNames, Items: make([]*Item, 0, len(c.Items))}
	expansions := make([][]string, len(c.Items))
	var hierVals []string
	var hierClaims []*ValueClaims
	for i, it := range c.Items {
		hierVals, hierClaims = hierVals[:0], hierClaims[:0]
		for _, vc := range it.Values {
			if vc.Value.IsLiteral() && h.Forest.Known(vc.Value.Value) {
				hierVals = append(hierVals, vc.Value.Value)
				hierClaims = append(hierClaims, vc)
			}
		}
		// A value of the forest shares a path with no other: nothing folds,
		// and the item goes through as it is.
		if len(hierVals) < 2 {
			out.Items = append(out.Items, it)
			continue
		}
		newItem := &Item{Subject: it.Subject, Predicate: it.Predicate}
		byValue := make(map[string]*ValueClaims, len(hierVals))
		for k, v := range hierVals {
			byValue[v] = hierClaims[k]
		}
		clusters := h.Forest.ClusterCompatible(hierVals)
		handled := map[string]bool{}
		var claimedAnc []string
		for _, cluster := range clusters {
			if len(cluster) < 2 {
				continue
			}
			// Record claimed generalisations for post-fusion expansion.
			for _, v := range cluster {
				for _, b := range cluster {
					if v != b && h.Forest.IsAncestor(v, b) && !slices.Contains(claimedAnc, v) {
						claimedAnc = append(claimedAnc, v)
					}
				}
			}
			// Fold only pure chains (every pair on one generalisation path):
			// a country claim on a chain item is a vote for its city — the
			// paper's (Wuhan, China) example. Clusters with sibling
			// branches are left untouched: there the generalisation is
			// genuinely ambiguous between the siblings, and folding it onto
			// one of them would manufacture support (and, for the EM-based
			// methods, corrupt the source-quality estimates).
			if !isChain(h.Forest, cluster) {
				continue
			}
			// ClusterCompatible orders most-general first; the chain's most
			// specific member absorbs everything.
			rep := cluster[len(cluster)-1]
			merged := &ValueClaims{Value: rdf.Literal(rep), Sources: byValue[rep].Sources}
			for _, a := range cluster {
				if a != rep {
					merged.Sources = absorb(merged.Sources, byValue[a].Sources, aw)
				}
			}
			newItem.Values = append(newItem.Values, merged)
			for _, v := range cluster {
				handled[v] = true
			}
		}
		// Values outside any multi-member cluster pass through unchanged.
		for _, vc := range it.Values {
			if vc.Value.IsLiteral() && handled[vc.Value.Value] {
				continue
			}
			newItem.Values = append(newItem.Values, vc)
		}
		slices.SortFunc(newItem.Values, func(a, b *ValueClaims) int { return a.Value.Compare(b.Value) })
		out.Items = append(out.Items, newItem)
		expansions[i] = claimedAnc
	}
	return out, expansions
}

// isChain reports whether every pair of cluster values lies on a single
// generalisation path.
func isChain(f *hierarchy.Forest, cluster []string) bool {
	for i := 0; i < len(cluster); i++ {
		for j := i + 1; j < len(cluster); j++ {
			a, b := cluster[i], cluster[j]
			if a != b && !f.IsAncestor(a, b) && !f.IsAncestor(b, a) {
				return false
			}
		}
	}
	return true
}

// absorb merges an ancestor's claims, at weight aw, into a candidate's: both
// lists and the result are in source-number order, and a source in both
// keeps the larger of its two confidences.
func absorb(own, ancestor []SourceClaim, aw float64) []SourceClaim {
	out := make([]SourceClaim, 0, len(own)+len(ancestor))
	for len(own) > 0 || len(ancestor) > 0 {
		switch {
		case len(ancestor) == 0 || (len(own) > 0 && own[0].Source < ancestor[0].Source):
			out = append(out, own[0])
			own = own[1:]
		case len(own) == 0 || ancestor[0].Source < own[0].Source:
			out = append(out, SourceClaim{Source: ancestor[0].Source, Confidence: ancestor[0].Confidence * aw})
			ancestor = ancestor[1:]
		default:
			out = append(out, SourceClaim{Source: own[0].Source, Confidence: max(own[0].Confidence, ancestor[0].Confidence*aw)})
			own, ancestor = own[1:], ancestor[1:]
		}
	}
	return out
}
