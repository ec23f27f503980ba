package htmldom_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"akb/internal/htmldom"
)

// noisyTags are the presentational tags a path's normal form leaves out of
// its legs when they carry no class (noisyTags).
var noisyTags = []string{"b", "i", "em", "strong", "u", "span", "small", "font", "abbr", "sub", "sup", "mark"}

// normalSteps is a path's normal form as Path.Normalize states it: the
// steps of its two legs whose name is a bare presentational tag are left
// out, the apex is kept.
func normalSteps(p *htmldom.Parser, path htmldom.Path) (steps []htmldom.Step, apex int) {
	for i, s := range path.Steps {
		if i == path.Apex {
			apex = len(steps)
		} else if slices.Contains(noisyTags, p.StepName(s)) {
			continue
		}
		steps = append(steps, s)
	}
	return steps, apex
}

// refSimilarity is the pairwise similarity PatternSet replaced, kept as the
// reference the prepared set is checked against: both paths normalised per
// call, two fresh rows per edit distance.
func refSimilarity(p *htmldom.Parser, x, y htmldom.Path) float64 {
	a, _ := normalSteps(p, x)
	b, _ := normalSteps(p, y)
	return 1 - float64(refEditDistance(a, b))/float64(max(len(a), len(b)))
}

func refEditDistance(a, b []htmldom.Step) int {
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
func refBestSimilarity(p *htmldom.Parser, path htmldom.Path, patterns []htmldom.Path) float64 {
	best := 0.0
	for _, q := range patterns {
		if s := refSimilarity(p, path, q); s > best {
			best = s
		}
	}
	return best
}

// step numbers a step by its name, "#doc", "td" or "span.k".
func step(p *htmldom.Parser, name string) htmldom.Step {
	if name == "#doc" {
		return htmldom.DocStep
	}
	tag, class, _ := strings.Cut(name, ".")
	return p.Intern(tag, class)
}

// pathOf writes a path by its step names, the apex the one at index apex.
func pathOf(p *htmldom.Parser, apex int, names ...string) htmldom.Path {
	path := htmldom.Path{Apex: apex}
	for _, name := range names {
		path.Steps = append(path.Steps, step(p, name))
	}
	return path
}

// genPath draws paths biased to the cases where normalisation and the edit
// distance are easiest to get wrong: legs of only noisy tags, empty legs,
// class-qualified steps that look noisy ("span.k"), and lengths 0..n.
func genPath(r *rand.Rand, p *htmldom.Parser) htmldom.Path {
	structural := []string{"td", "tr", "table", "div", "li", "ul", "a", "span.k", "span.v", "div.row", "b.x"}
	noisy := []string{"b", "i", "em", "span", "strong", "font"}
	var path htmldom.Path
	leg := func() {
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
		for range n {
			name := structural[r.Intn(len(structural))]
			if onlyNoisy || r.Intn(3) == 0 {
				name = noisy[r.Intn(len(noisy))]
			}
			path.Steps = append(path.Steps, step(p, name))
		}
	}
	leg()
	path.Apex = len(path.Steps)
	apex := structural[r.Intn(len(structural))]
	if r.Intn(10) == 0 {
		apex = "#doc"
	}
	path.Steps = append(path.Steps, step(p, apex))
	leg()
	return path
}

func TestPatternSetMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var parser htmldom.Parser
	var ps htmldom.PatternSet // reused across rounds, as a domx shard reuses it
	for round := 0; round < 2000; round++ {
		patterns := make([]htmldom.Path, r.Intn(8))
		for i := range patterns {
			if i > 0 && r.Intn(3) == 0 {
				patterns[i] = patterns[r.Intn(i)] // duplicates, as infobox rows produce
			} else {
				patterns[i] = genPath(r, &parser)
			}
		}
		ps.Reset()
		distinct := map[string]bool{}
		for _, q := range patterns {
			added := ps.Add(q)
			if steps, apex := normalSteps(&parser, q); added == distinct[fmt.Sprint(steps, apex)] {
				t.Fatalf("round %d: Add(%q) = %v, pattern seen before: %v", round, parser.PathString(q), added, !added)
			} else {
				distinct[fmt.Sprint(steps, apex)] = true
			}
		}
		for k := 0; k < 8; k++ {
			p := genPath(r, &parser)
			if k == 0 && len(patterns) > 0 {
				p = patterns[r.Intn(len(patterns))] // an exact hit: the early return
			}
			got, want := ps.BestSimilarity(p), refBestSimilarity(&parser, p, patterns)
			if got != want {
				t.Fatalf("round %d: BestSimilarity(%q) over %d patterns = %v, reference %v", round, parser.PathString(p), len(patterns), got, want)
			}
		}
	}
}

func TestPatternSetEdgeCases(t *testing.T) {
	var parser htmldom.Parser
	var ps htmldom.PatternSet
	p := pathOf(&parser, 1, "td", "tr", "td")
	if s := ps.BestSimilarity(p); s != 0 {
		t.Errorf("empty set: similarity = %v, want 0", s)
	}
	// Paths that differ only in noisy tags are one pattern.
	ps.Add(p)
	ps.Add(pathOf(&parser, 2, "b", "td", "tr", "td", "span"))
	if ps.Len() != 1 {
		t.Errorf("Len = %d after adding a noisy variant, want 1", ps.Len())
	}
	// A class-qualified span is structural.
	qualified := pathOf(&parser, 1, "td", "tr", "td", "span.k")
	ps.Add(qualified)
	if ps.Len() != 2 {
		t.Errorf("Len = %d after adding a qualified step, want 2", ps.Len())
	}
	// Length 1 (bare apex, every leg noisy) against length n.
	bare := pathOf(&parser, 2, "b", "i", "tr", "em")
	if got, want := ps.BestSimilarity(bare), refBestSimilarity(&parser, bare, []htmldom.Path{p, qualified}); got != want {
		t.Errorf("bare apex: similarity = %v, reference %v", got, want)
	}
	ps.Reset()
	if ps.Len() != 0 || ps.BestSimilarity(p) != 0 {
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
		patterns[i] = genPath(r, &parser)
	}
	queries := make([]htmldom.Path, 32)
	for i := range queries {
		queries[i] = genPath(r, &parser)
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
