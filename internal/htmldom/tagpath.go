package htmldom

import (
	"slices"
	"strings"
)

// TagPath is the tag-level path between two nodes in a DOM tree: the
// sequence of tags climbed from the start node up to the lowest common
// ancestor, followed by the sequence descended to the end node. It is the
// unit Algorithm 1 induces patterns over: on a template-driven page the path
// between an entity name node and each attribute node is highly regular.
type TagPath struct {
	// Up holds the tags of the nodes climbed through, starting at the start
	// node's element (for text nodes, their parent element) and ending just
	// below the common ancestor.
	Up []string
	// Apex is the tag of the lowest common ancestor.
	Apex string
	// Down holds the tags descended through, ending at the end node's
	// element.
	Down []string
}

// noisyTags are presentational tags stripped during normalisation, as
// Algorithm 1 removes "noisy tags" from extracted paths. Two paths differing
// only in <b>/<span> wrappers describe the same structural relationship.
var noisyTags = map[string]bool{
	"b": true, "i": true, "em": true, "strong": true, "u": true,
	"span": true, "small": true, "font": true, "abbr": true, "sub": true,
	"sup": true, "mark": true, "a": false, // anchors are structural: keep
}

// StepFunc renders one DOM element as a path step. TagStep uses the bare
// tag name; QualifiedStep additionally appends the element's first class
// token, which disambiguates sibling roles (label vs value cells) the way
// class-qualified XPaths do in wrapper-induction systems.
type StepFunc func(*Node) string

// TagStep is the default step renderer: the element's tag name.
func TagStep(n *Node) string { return n.Tag }

// QualifiedStep renders "tag.class" using the first token of the class
// attribute, or the bare tag when the element has no class.
func QualifiedStep(n *Node) string {
	if cls, ok := n.Attr("class"); ok {
		if fields := strings.Fields(cls); len(fields) > 0 {
			return n.Tag + "." + fields[0]
		}
	}
	return n.Tag
}

// PathBetween computes the tag path between two nodes of the same tree.
// It returns a zero path and false if the nodes are in different trees.
func PathBetween(from, to *Node) (TagPath, bool) {
	return PathBetweenFunc(from, to, TagStep)
}

// PathBetweenFunc is PathBetween with a custom step renderer.
func PathBetweenFunc(from, to *Node, step StepFunc) (TagPath, bool) {
	a, b := elementOf(from), elementOf(to)
	if a == nil || b == nil {
		return TagPath{}, false
	}
	// Collect ancestor chains (including the element itself).
	anc := map[*Node]int{}
	i := 0
	for cur := a; cur != nil; cur = cur.Parent {
		anc[cur] = i
		i++
	}
	var lca *Node
	downDepth := 0
	for cur := b; cur != nil; cur = cur.Parent {
		if _, ok := anc[cur]; ok {
			lca = cur
			break
		}
		downDepth++
	}
	if lca == nil {
		return TagPath{}, false
	}
	var p TagPath
	for cur := a; cur != lca; cur = cur.Parent {
		if cur.Kind == ElementNode {
			p.Up = append(p.Up, step(cur))
		}
	}
	if lca.Kind == ElementNode {
		p.Apex = step(lca)
	} else {
		p.Apex = "#doc"
	}
	down := make([]string, 0, downDepth)
	for cur := b; cur != lca; cur = cur.Parent {
		if cur.Kind == ElementNode {
			down = append(down, step(cur))
		}
	}
	// down was collected bottom-up; reverse to get apex-to-target order.
	for l, r := 0, len(down)-1; l < r; l, r = l+1, r-1 {
		down[l], down[r] = down[r], down[l]
	}
	p.Down = down
	return p, true
}

// elementOf returns the nearest element node: n itself, or its parent when n
// is a text node.
func elementOf(n *Node) *Node {
	if n == nil {
		return nil
	}
	if n.Kind == ElementNode {
		return n
	}
	if n.Parent != nil && n.Parent.Kind == ElementNode {
		return n.Parent
	}
	return n.Parent
}

// Normalize returns a copy of the path with presentational ("noisy") tags
// removed from the up and down legs.
func (p TagPath) Normalize() TagPath {
	out := TagPath{Apex: p.Apex}
	for _, t := range p.Up {
		if !isNoisyStep(t) {
			out.Up = append(out.Up, t)
		}
	}
	for _, t := range p.Down {
		if !isNoisyStep(t) {
			out.Down = append(out.Down, t)
		}
	}
	return out
}

// isNoisyStep strips only bare presentational tags; a class-qualified step
// like "span.k" is structural and kept.
func isNoisyStep(t string) bool {
	if strings.ContainsRune(t, '.') {
		return false
	}
	return noisyTags[t]
}

// String renders the path canonically, e.g. "td^tr^table(tr/td)" meaning:
// climb td, tr to apex table, descend tr, td.
func (p TagPath) String() string {
	var b strings.Builder
	for _, t := range p.Up {
		b.WriteString(t)
		b.WriteByte('^')
	}
	b.WriteString(p.Apex)
	if len(p.Down) > 0 {
		b.WriteByte('(')
		b.WriteString(strings.Join(p.Down, "/"))
		b.WriteByte(')')
	}
	return b.String()
}

// Len returns the number of steps in the path.
func (p TagPath) Len() int { return len(p.Up) + 1 + len(p.Down) }

// Equal reports whether two paths are identical after normalisation.
func (p TagPath) Equal(q TagPath) bool {
	return p.Normalize().String() == q.Normalize().String()
}

// PatternSet is a set of tag-path patterns prepared for repeated similarity
// queries. Algorithm 1 compares every candidate node's path against every
// pattern induced on the page, so the per-pattern work — dropping noisy
// tags, flattening to one step sequence — is done once when the pattern is
// added, not once per comparison. The zero value is an empty set; Reset
// empties it for reuse, keeping its buffers. A PatternSet carries query
// scratch and must not be used from two goroutines at once.
type PatternSet struct {
	steps []string // the patterns' normalised step sequences, back to back
	ends  []int    // pattern i is steps[ends[i-1]:ends[i]]

	query     []string // scratch: the queried path's normalised steps
	prev, cur []int    // scratch: edit-distance rows
}

// Reset empties the set.
func (ps *PatternSet) Reset() {
	ps.steps = ps.steps[:0]
	ps.ends = ps.ends[:0]
}

// Len returns the number of distinct patterns in the set.
func (ps *PatternSet) Len() int { return len(ps.ends) }

// Add inserts the normalised form of p. A pattern already present is
// skipped: the rows of one infobox share a single path, and a duplicate
// cannot change the best similarity.
func (ps *PatternSet) Add(p TagPath) {
	start := len(ps.steps)
	ps.steps = appendNormalizedSteps(ps.steps, p)
	added := ps.steps[start:]
	for i := range ps.ends {
		if slices.Equal(ps.pattern(i), added) {
			ps.steps = ps.steps[:start]
			return
		}
	}
	ps.ends = append(ps.ends, len(ps.steps))
}

func (ps *PatternSet) pattern(i int) []string {
	start := 0
	if i > 0 {
		start = ps.ends[i-1]
	}
	return ps.steps[start:ps.ends[i]]
}

// BestSimilarity returns the highest structural similarity in [0, 1]
// between p and any pattern of the set, 0 for an empty set. The similarity
// of two paths is 1 - editDistance/maxLen over their normalised step
// sequences: paths from the same page template typically differ by zero or
// one step (an extra wrapper), scoring >= 0.8; unrelated paths score much
// lower.
func (ps *PatternSet) BestSimilarity(p TagPath) float64 {
	ps.query = appendNormalizedSteps(ps.query[:0], p)
	a := ps.query
	best := 0.0
	for i := range ps.ends {
		b := ps.pattern(i)
		maxLen, diff := len(a), len(a)-len(b)
		if diff < 0 {
			maxLen, diff = len(b), -diff
		}
		// The distance is at least the length difference, which bounds
		// this pattern's similarity from above.
		if 1-float64(diff)/float64(maxLen) <= best {
			continue
		}
		d := ps.editDistance(a, b)
		if d == 0 {
			return 1
		}
		if s := 1 - float64(d)/float64(maxLen); s > best {
			best = s
		}
	}
	return best
}

// appendNormalizedSteps appends p's step sequence — up tags, apex, down
// tags, with noisy tags dropped from both legs as Normalize does — to dst.
func appendNormalizedSteps(dst []string, p TagPath) []string {
	for _, t := range p.Up {
		if !isNoisyStep(t) {
			dst = append(dst, t)
		}
	}
	dst = append(dst, p.Apex)
	for _, t := range p.Down {
		if !isNoisyStep(t) {
			dst = append(dst, t)
		}
	}
	return dst
}

// editDistance is the Levenshtein distance over step sequences, computed in
// the set's reusable rows.
func (ps *PatternSet) editDistance(a, b []string) int {
	if cap(ps.prev) <= len(b) {
		ps.prev = make([]int, 2*(len(b)+1))
		ps.cur = make([]int, 2*(len(b)+1))
	}
	prev, cur := ps.prev[:len(b)+1], ps.cur[:len(b)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// PathToRoot returns the element tags from n's element up to the tree root,
// most-specific first (e.g. td, tr, table, body, html).
func PathToRoot(n *Node) []string {
	var out []string
	for cur := elementOf(n); cur != nil; cur = cur.Parent {
		if cur.Kind == ElementNode {
			out = append(out, cur.Tag)
		}
	}
	return out
}
