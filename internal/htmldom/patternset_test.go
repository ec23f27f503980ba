package htmldom_test

import (
	"math/rand"
	"testing"

	"akb/internal/htmldom"
)

// refSimilarity is the pairwise similarity PatternSet replaced, kept as the
// reference the prepared set is checked against: both paths normalised and
// flattened per call, two fresh rows per edit distance.
func refSimilarity(p, q TagPath) float64 {
	a, b := refSteps(p.Normalize()), refSteps(q.Normalize())
	maxLen := len(a)
	if len(b) > maxLen {
		maxLen = len(b)
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(refEditDistance(a, b))/float64(maxLen)
}

// refSteps flattens a path into one step sequence: up tags, apex, down tags.
func refSteps(p TagPath) []string {
	steps := append([]string{}, p.Up...)
	steps = append(steps, p.Apex)
	return append(steps, p.Down...)
}

func refEditDistance(a, b []string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
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

// refBestSimilarity is domx's former bestSimilarity.
func refBestSimilarity(p TagPath, patterns []TagPath) float64 {
	best := 0.0
	for _, q := range patterns {
		if s := refSimilarity(p, q); s > best {
			best = s
		}
	}
	return best
}

// genPath draws paths biased to the cases where normalisation and the edit
// distance are easiest to get wrong: legs of only noisy tags, empty legs,
// class-qualified steps that look noisy ("span.k"), and lengths 0..n.
func genPath(r *rand.Rand) TagPath {
	structural := []string{"td", "tr", "table", "div", "li", "ul", "a", "span.k", "span.v", "div.row", "b.x"}
	noisy := []string{"b", "i", "em", "span", "strong", "font"}
	leg := func() []string {
		var n int
		switch r.Intn(5) {
		case 0:
			n = 0
		case 1:
			n = 1
		default:
			n = r.Intn(7)
		}
		onlyNoisy := r.Intn(6) == 0
		out := make([]string, n)
		for i := range out {
			if onlyNoisy || r.Intn(3) == 0 {
				out[i] = noisy[r.Intn(len(noisy))]
			} else {
				out[i] = structural[r.Intn(len(structural))]
			}
		}
		return out
	}
	apex := structural[r.Intn(len(structural))]
	if r.Intn(10) == 0 {
		apex = "#doc"
	}
	return TagPath{Up: leg(), Apex: apex, Down: leg()}
}

func TestPatternSetMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var parser htmldom.Parser
	var ps htmldom.PatternSet // reused across rounds, as a domx shard reuses it
	for round := 0; round < 2000; round++ {
		patterns := make([]TagPath, r.Intn(8))
		for i := range patterns {
			if i > 0 && r.Intn(3) == 0 {
				patterns[i] = patterns[r.Intn(i)] // duplicates, as infobox rows produce
			} else {
				patterns[i] = genPath(r)
			}
		}
		ps.Reset()
		distinct := map[string]bool{}
		for _, q := range patterns {
			added := ps.Add(numbered(&parser, q))
			if key := q.Normalize().String(); added == distinct[key] {
				t.Fatalf("round %d: Add(%v) = %v, pattern seen before: %v", round, q, added, distinct[key])
			} else {
				distinct[key] = true
			}
		}
		for k := 0; k < 8; k++ {
			p := genPath(r)
			if k == 0 && len(patterns) > 0 {
				p = patterns[r.Intn(len(patterns))] // an exact hit: the early return
			}
			got, want := ps.BestSimilarity(numbered(&parser, p)), refBestSimilarity(p, patterns)
			if got != want {
				t.Fatalf("round %d: BestSimilarity(%v) over %v = %v, reference %v", round, p, patterns, got, want)
			}
		}
	}
}

func TestPatternSetEdgeCases(t *testing.T) {
	var parser htmldom.Parser
	var ps htmldom.PatternSet
	num := func(p TagPath) htmldom.Path { return numbered(&parser, p) }
	p := TagPath{Up: []string{"td"}, Apex: "tr", Down: []string{"td"}}
	if s := ps.BestSimilarity(num(p)); s != 0 {
		t.Errorf("empty set: similarity = %v, want 0", s)
	}
	// Paths that differ only in noisy tags are one pattern.
	ps.Add(num(p))
	ps.Add(num(TagPath{Up: []string{"b", "td"}, Apex: "tr", Down: []string{"td", "span"}}))
	if ps.Len() != 1 {
		t.Errorf("Len = %d after adding a noisy variant, want 1", ps.Len())
	}
	// A class-qualified span is structural.
	ps.Add(num(TagPath{Up: []string{"td"}, Apex: "tr", Down: []string{"td", "span.k"}}))
	if ps.Len() != 2 {
		t.Errorf("Len = %d after adding a qualified step, want 2", ps.Len())
	}
	// Length 1 (bare apex, every leg noisy) against length n.
	bare := TagPath{Up: []string{"b", "i"}, Apex: "tr", Down: []string{"em"}}
	if got, want := ps.BestSimilarity(num(bare)), refBestSimilarity(bare, []TagPath{p, {Up: []string{"td"}, Apex: "tr", Down: []string{"td", "span.k"}}}); got != want {
		t.Errorf("bare apex: similarity = %v, reference %v", got, want)
	}
	ps.Reset()
	if ps.Len() != 0 || ps.BestSimilarity(num(p)) != 0 {
		t.Errorf("Reset left patterns behind")
	}
}

// TestPatternSetAllocationFree pins the point of the prepared set: once its
// buffers have grown, rebuilding it for a page and querying it allocates
// nothing (the pairwise form allocated four slices and two rows per pair).
func TestPatternSetAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var parser htmldom.Parser
	patterns := make([]htmldom.Path, 12)
	for i := range patterns {
		patterns[i] = numbered(&parser, genPath(r))
	}
	queries := make([]htmldom.Path, 32)
	for i := range queries {
		queries[i] = numbered(&parser, genPath(r))
	}
	var ps htmldom.PatternSet
	pass := func() {
		ps.Reset()
		for _, q := range patterns {
			ps.Add(q)
		}
		for _, p := range queries {
			ps.BestSimilarity(p)
		}
	}
	pass() // warm-up grows the buffers
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Errorf("PatternSet rebuild + %d queries allocated %.0f times, want 0", len(queries), allocs)
	}
}
