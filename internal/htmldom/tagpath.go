package htmldom

import (
	"slices"
	"strings"
)

// Step is one step of a tag path: an element's tag qualified by the first
// token of its class attribute ("td", "span.k"), which tells sibling roles
// (label and value cells) apart the way class-qualified XPaths do in
// wrapper-induction systems. A Parser numbers the steps it meets, so paths
// are compared as numbers; Parser.StepName gives the text back. Steps of two
// Parsers do not compare.
type Step int32

const (
	// docStep is the step of the document node ("#doc"), the apex of a path
	// between nodes that share no element.
	docStep Step = 0
	// noisyStep is the bit that marks a presentational step.
	noisyStep Step = 1
)

// noisyTags are presentational tags stripped during normalisation, as
// Algorithm 1 removes "noisy tags" from extracted paths. Two paths differing
// only in <b>/<span> wrappers describe the same structural relationship.
var noisyTags = map[string]bool{
	"b": true, "i": true, "em": true, "strong": true, "u": true,
	"span": true, "small": true, "font": true, "abbr": true, "sub": true,
	"sup": true, "mark": true, "a": false, // anchors are structural: keep
}

// Path is the tag-level path between two nodes of a DOM tree: the steps
// climbed from the start node up to the lowest common ancestor, that
// ancestor's, and the steps descended to the end node. It is the unit
// Algorithm 1 induces patterns over: on a template-driven page the path
// between an entity name node and each attribute node is highly regular.
type Path struct {
	// Steps[:Apex] are the elements climbed through, from the start node's
	// element (for a text node, its parent) to just below the common
	// ancestor; Steps[Apex] is the ancestor; Steps[Apex+1:] are the elements
	// descended through, ending at the end node's element.
	Steps []Step
	Apex  int
}

// PathBetween computes the tag path between two nodes of a tree a Parser
// built, false if they are in different trees. The path's steps overwrite
// buf, which is grown when it is too short: a caller that keeps the steps it
// got for its next call computes paths without allocating.
func PathBetween(from, to *Node, buf []Step) (Path, bool) {
	a, b := elementOf(from), elementOf(to)
	if a == nil || b == nil {
		return Path{}, false
	}
	// The common ancestor: level the deeper node, then climb in step.
	x, y := a, b
	for x.depth > y.depth {
		x = x.Parent
	}
	for y.depth > x.depth {
		y = y.Parent
	}
	for x != y {
		x, y = x.Parent, y.Parent
		if x == nil || y == nil {
			return Path{}, false
		}
	}
	lca := x
	steps := buf[:0]
	for cur := a; cur != lca; cur = cur.Parent {
		steps = append(steps, cur.step)
	}
	p := Path{Apex: len(steps)}
	steps = append(steps, lca.step)
	// The descent is read bottom-up and written back to front.
	down := int(b.depth - lca.depth)
	steps = slices.Grow(steps, down)[:len(steps)+down]
	i := len(steps)
	for cur := b; cur != lca; cur = cur.Parent {
		i--
		steps[i] = cur.step
	}
	p.Steps = steps
	return p, true
}

// AncestorSteps returns the steps of the elements from n's own — for a text
// node, its parent's — up to the outermost, most specific first: where in
// its page's template the node stands. Like PathBetween it writes into buf.
func AncestorSteps(n *Node, buf []Step) []Step {
	steps := buf[:0]
	for cur := elementOf(n); cur != nil && cur.Kind == ElementNode; cur = cur.Parent {
		steps = append(steps, cur.step)
	}
	return steps
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
	return n.Parent
}

// Normalize returns the path with presentational ("noisy") steps removed
// from the up and down legs. Like PathBetween it writes into buf, which may
// be the path's own steps.
func (p Path) Normalize(buf []Step) Path {
	steps, apex := appendNormalized(buf[:0], p)
	return Path{Steps: steps, Apex: apex}
}

// appendNormalized appends p's steps to dst, the noisy ones of the two legs
// left out, and says where in dst the apex went.
func appendNormalized(dst []Step, p Path) (steps []Step, apex int) {
	for i, s := range p.Steps {
		if i == p.Apex {
			apex = len(dst)
		} else if s&noisyStep != 0 {
			continue
		}
		dst = append(dst, s)
	}
	return dst, apex
}

// StepName renders a step of one of the parser's trees: "td", "span.k",
// "#doc".
func (p *Parser) StepName(s Step) string {
	if s == docStep {
		return "#doc"
	}
	return p.names[s>>1]
}

// PathString renders a path between nodes of the parser's trees
// canonically, e.g. "td^tr^table(tr/td)" meaning: climb td, tr to apex
// table, descend tr, td.
func (p *Parser) PathString(path Path) string {
	var b strings.Builder
	for i, s := range path.Steps {
		switch {
		case i < path.Apex:
			b.WriteString(p.StepName(s))
			b.WriteByte('^')
		case i == path.Apex:
			b.WriteString(p.StepName(s))
		case i == path.Apex+1:
			b.WriteByte('(')
			b.WriteString(p.StepName(s))
		default:
			b.WriteByte('/')
			b.WriteString(p.StepName(s))
		}
	}
	if len(path.Steps) > path.Apex+1 {
		b.WriteByte(')')
	}
	return b.String()
}

// PatternSet is a set of tag-path patterns prepared for repeated similarity
// queries. Algorithm 1 compares every candidate node's path against every
// pattern induced on the page, so the per-pattern work — dropping noisy
// steps — is done once when the pattern is added, not once per comparison.
// The zero value is an empty set; Reset empties it for reuse, keeping its
// buffers. A PatternSet carries query scratch and must not be used from two
// goroutines at once.
type PatternSet struct {
	steps []Step // the patterns' normalised step sequences, back to back
	ends  []int  // pattern i is steps[ends[i-1]:ends[i]]

	query     []Step // scratch: the queried path's normalised steps
	prev, cur []int  // scratch: edit-distance rows
}

// Reset empties the set.
func (ps *PatternSet) Reset() {
	ps.steps = ps.steps[:0]
	ps.ends = ps.ends[:0]
}

// Len returns the number of distinct patterns in the set.
func (ps *PatternSet) Len() int { return len(ps.ends) }

// Add inserts the normalised form of p and reports whether the set grew. A
// pattern already present is skipped: the rows of one infobox share a single
// path, and a duplicate cannot change the best similarity.
func (ps *PatternSet) Add(p Path) bool {
	start := len(ps.steps)
	ps.steps, _ = appendNormalized(ps.steps, p)
	added := ps.steps[start:]
	for i := range ps.ends {
		if slices.Equal(ps.pattern(i), added) {
			ps.steps = ps.steps[:start]
			return false
		}
	}
	ps.ends = append(ps.ends, len(ps.steps))
	return true
}

func (ps *PatternSet) pattern(i int) []Step {
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
func (ps *PatternSet) BestSimilarity(p Path) float64 {
	ps.query, _ = appendNormalized(ps.query[:0], p)
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

// editDistance is the Levenshtein distance over step sequences, computed in
// the set's reusable rows.
func (ps *PatternSet) editDistance(a, b []Step) int {
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
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
