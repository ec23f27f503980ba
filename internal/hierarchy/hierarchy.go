// Package hierarchy models hierarchical value spaces. The paper observes
// that extracted values are often organised in generalisation chains — e.g.
// Adelaide ⊂ South Australia ⊂ Australia in the location hierarchy — so even
// a functional attribute like "birth place" admits multiple simultaneously
// true values at different abstraction levels. Naive fusion treats such
// values as conflicting; hierarchy-aware fusion (internal/fusion) uses this
// package to recognise ancestor/descendant compatibility.
package hierarchy

import (
	"fmt"
	"sort"
)

// Forest is a set of rooted trees over string-identified values. Each value
// has at most one parent (a strict hierarchy). The zero Forest is not usable;
// call NewForest.
type Forest struct {
	parent   map[string]string
	children map[string][]string
	depth    map[string]int
}

// NewForest returns an empty forest.
func NewForest() *Forest {
	return &Forest{
		parent:   make(map[string]string),
		children: make(map[string][]string),
		depth:    make(map[string]int),
	}
}

// AddEdge records that child's immediate generalisation is parent
// (child ⊂ parent). It returns an error if the child already has a different
// parent or if the edge would create a cycle.
func (f *Forest) AddEdge(child, parent string) error {
	if child == parent {
		return fmt.Errorf("hierarchy: self edge %q", child)
	}
	if prev, ok := f.parent[child]; ok {
		if prev == parent {
			return nil
		}
		return fmt.Errorf("hierarchy: %q already has parent %q, cannot add %q", child, prev, parent)
	}
	// Cycle check: walk up from parent; if we reach child, reject.
	for cur := parent; cur != ""; cur = f.parent[cur] {
		if cur == child {
			return fmt.Errorf("hierarchy: edge %q -> %q would create a cycle", child, parent)
		}
	}
	f.parent[child] = parent
	f.children[parent] = append(f.children[parent], child)
	sort.Strings(f.children[parent])
	f.invalidateDepths()
	return nil
}

// MustAddChain adds a generalisation chain from most specific to most
// general, e.g. MustAddChain("Adelaide", "South Australia", "Australia").
// It panics on structural errors, which indicate programmer mistakes in
// static hierarchy definitions.
func (f *Forest) MustAddChain(values ...string) {
	for i := 0; i+1 < len(values); i++ {
		if err := f.AddEdge(values[i], values[i+1]); err != nil {
			panic(err)
		}
	}
}

func (f *Forest) invalidateDepths() {
	for k := range f.depth {
		delete(f.depth, k)
	}
}

// Known reports whether the value participates in the forest at all
// (as child or parent).
func (f *Forest) Known(v string) bool {
	if _, ok := f.parent[v]; ok {
		return true
	}
	_, ok := f.children[v]
	return ok
}

// Children returns the immediate specialisations of v in sorted order.
// The returned slice must not be modified.
func (f *Forest) Children(v string) []string { return f.children[v] }

// Ancestors returns the chain of generalisations of v from immediate parent
// to root, excluding v itself.
func (f *Forest) Ancestors(v string) []string {
	var out []string
	for cur, ok := f.parent[v]; ok; cur, ok = f.parent[cur] {
		out = append(out, cur)
	}
	return out
}

// IsAncestor reports whether anc is a strict ancestor (generalisation) of v.
func (f *Forest) IsAncestor(anc, v string) bool {
	for cur, ok := f.parent[v]; ok; cur, ok = f.parent[cur] {
		if cur == anc {
			return true
		}
	}
	return false
}

// Compatible reports whether two values can simultaneously be true for a
// functional attribute: they are equal, or one generalises the other.
func (f *Forest) Compatible(a, b string) bool {
	return a == b || f.IsAncestor(a, b) || f.IsAncestor(b, a)
}

// MostSpecific returns, among compatible values, the one deepest in the
// hierarchy; if the values are incompatible it returns "", false.
func (f *Forest) MostSpecific(a, b string) (string, bool) {
	switch {
	case a == b:
		return a, true
	case f.IsAncestor(a, b):
		return b, true
	case f.IsAncestor(b, a):
		return a, true
	default:
		return "", false
	}
}

// Depth returns the distance of v from its root (root has depth 0). Unknown
// values have depth 0.
func (f *Forest) Depth(v string) int {
	if d, ok := f.depth[v]; ok {
		return d
	}
	d := 0
	for cur, ok := f.parent[v]; ok; cur, ok = f.parent[cur] {
		d++
		_ = cur
	}
	f.depth[v] = d
	return d
}

// Root returns the most general ancestor of v (v itself if it has no parent).
func (f *Forest) Root(v string) string {
	cur := v
	for {
		p, ok := f.parent[cur]
		if !ok {
			return cur
		}
		cur = p
	}
}

// LowestCommonAncestor returns the deepest value that generalises both a and
// b (possibly one of them), or "", false if they are in different trees.
func (f *Forest) LowestCommonAncestor(a, b string) (string, bool) {
	onPathA := map[string]struct{}{a: {}}
	for _, anc := range f.Ancestors(a) {
		onPathA[anc] = struct{}{}
	}
	if _, ok := onPathA[b]; ok {
		return b, true
	}
	for cur, ok := b, true; ok; cur, ok = f.parent[cur] {
		if _, hit := onPathA[cur]; hit {
			return cur, true
		}
	}
	return "", false
}

// ClusterCompatible partitions values into groups of pairwise-compatible
// values (each group shares a single hierarchy path). Values unknown to the
// forest each form singleton groups unless equal. Within each group values
// are ordered most-general first. Groups are ordered by their most general
// member for determinism.
func (f *Forest) ClusterCompatible(values []string) [][]string {
	// Union values by hierarchy path: two values join the same cluster when
	// one is an ancestor of the other.
	reps := map[string]int{}
	var groups [][]string
	for _, v := range values {
		placed := false
		for gi := range groups {
			if f.Compatible(groups[gi][0], v) || f.anyCompatible(groups[gi], v) {
				groups[gi] = append(groups[gi], v)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []string{v})
			reps[v] = len(groups) - 1
		}
	}
	for gi := range groups {
		g := groups[gi]
		sort.Slice(g, func(i, j int) bool {
			di, dj := f.Depth(g[i]), f.Depth(g[j])
			if di != dj {
				return di < dj
			}
			return g[i] < g[j]
		})
		groups[gi] = dedupSorted(g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}

func (f *Forest) anyCompatible(group []string, v string) bool {
	for _, g := range group {
		if f.Compatible(g, v) {
			return true
		}
	}
	return false
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Values returns every value known to the forest in sorted order.
func (f *Forest) Values() []string {
	set := map[string]struct{}{}
	for c, p := range f.parent {
		set[c] = struct{}{}
		set[p] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of distinct values known to the forest.
func (f *Forest) Len() int { return len(f.Values()) }
