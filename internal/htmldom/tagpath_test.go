package htmldom_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"akb/internal/htmldom"
)

// infobox is the page the path tests read, and the parser that numbered it.
func infobox() (*htmldom.Parser, *htmldom.Node) {
	p := new(htmldom.Parser)
	return p, p.Parse(`<html><body>
	<h1 class="entity">Casablanca</h1>
	<table class="infobox">
	  <tr><th>Director</th><td>Michael Curtiz</td></tr>
	  <tr><th>Genre</th><td><b>Drama</b></td></tr>
	</table>
	</body></html>`).Root
}

// similarity is the one-pattern case of PatternSet.BestSimilarity.
func similarity(p, q htmldom.Path) float64 {
	var ps htmldom.PatternSet
	ps.Add(q)
	return ps.BestSimilarity(p)
}

func TestPathBetweenSameRow(t *testing.T) {
	parser, doc := infobox()
	ths := doc.FindAll("th")
	tds := doc.FindAll("td")
	p, ok := htmldom.PathBetween(ths[0], tds[0], nil)
	if !ok {
		t.Fatal("no path between th and td in same row")
	}
	if apex := parser.StepName(p.Steps[p.Apex]); apex != "tr" {
		t.Errorf("apex = %q, want tr", apex)
	}
	if got := parser.PathString(p); got != "th^tr(td)" {
		t.Errorf("path = %q, want th^tr(td)", got)
	}
}

func TestPathBetweenAcrossRows(t *testing.T) {
	parser, doc := infobox()
	h1 := doc.Find("h1")
	tds := doc.FindAll("td")
	p0, ok0 := htmldom.PathBetween(h1, tds[0], nil)
	p1, ok1 := htmldom.PathBetween(h1, tds[1].FirstChild, nil)
	if !ok0 || !ok1 {
		t.Fatal("paths not found")
	}
	if got := parser.PathString(p0); got != "h1.entity^body(table.infobox/tr/td)" {
		t.Errorf("path to the first cell = %q", got)
	}
	if got := parser.PathString(p1); got != "h1.entity^body(table.infobox/tr/td/b)" {
		t.Errorf("path into the second cell = %q", got)
	}
	// Second path passes through <b>; after normalisation both are equal.
	n0, n1 := parser.PathString(p0.Normalize(nil)), parser.PathString(p1.Normalize(nil))
	if n0 != n1 {
		t.Errorf("template paths should be equal after normalisation: %q vs %q", n0, n1)
	}
	if similarity(p0, p1) != 1 {
		t.Errorf("similarity = %g, want 1", similarity(p0, p1))
	}
}

func TestPathBetweenTextNodes(t *testing.T) {
	parser, doc := infobox()
	// Find the text nodes for "Director" and "Michael Curtiz".
	var dir, curtiz *htmldom.Node
	doc.Walk(func(n *htmldom.Node) bool {
		switch htmldom.NormalizeSpace(n.Text) {
		case "Director":
			dir = n
		case "Michael Curtiz":
			curtiz = n
		}
		return true
	})
	if dir == nil || curtiz == nil {
		t.Fatal("text nodes not found")
	}
	p, ok := htmldom.PathBetween(dir, curtiz, nil)
	if !ok || parser.PathString(p) != "th^tr(td)" {
		t.Fatalf("path between text nodes = %q, %v", parser.PathString(p), ok)
	}
}

func TestPathBetweenDifferentTrees(t *testing.T) {
	doc := htmldom.Parse(`<p>one</p>`)
	a := doc.Find("p")
	b := htmldom.Parse(`<p>two</p>`).Find("p")
	if _, ok := htmldom.PathBetween(a, b, nil); ok {
		t.Error("path found across distinct trees")
	}
	if _, ok := htmldom.PathBetween(doc, a, nil); ok {
		t.Error("path found from a document node, which is no element's text")
	}
}

func TestPathSelf(t *testing.T) {
	parser, doc := infobox()
	h1 := doc.Find("h1")
	p, ok := htmldom.PathBetween(h1, h1, nil)
	if !ok || p.Apex != 0 || len(p.Steps) != 1 || parser.PathString(p) != "h1.entity" {
		t.Errorf("self path = %+v, %v", p, ok)
	}
}

// TestPathBetweenReusesBuffer: a caller that hands the steps back computes
// the next path in them.
func TestPathBetweenReusesBuffer(t *testing.T) {
	_, doc := infobox()
	h1, tds := doc.Find("h1"), doc.FindAll("td")
	buf := make([]htmldom.Step, 0, 16)
	allocs := testing.AllocsPerRun(20, func() {
		for _, td := range tds {
			p, ok := htmldom.PathBetween(h1, td, buf)
			if !ok || &p.Steps[0] != &buf[:1][0] {
				t.Fatal("path not written into the caller's buffer")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("PathBetween into a buffer allocated %.0f times", allocs)
	}
}

func TestNormalizeRemovesNoisyTags(t *testing.T) {
	var parser htmldom.Parser
	p := pathOf(&parser, 2, "b", "td", "tr", "span", "td", "i", "span.k")
	n := p.Normalize(nil)
	if got := parser.PathString(n); got != "td^tr(td/span.k)" {
		t.Errorf("normalised = %q, want td^tr(td/span.k)", got)
	}
	// A noisy apex stays: it is where the legs meet.
	if got := parser.PathString(pathOf(&parser, 1, "i", "b").Normalize(nil)); got != "b" {
		t.Errorf("normalised noisy apex = %q, want b", got)
	}
	// In place.
	if got := parser.PathString(p.Normalize(p.Steps)); got != "td^tr(td/span.k)" {
		t.Errorf("normalised in place = %q", got)
	}
}

func TestSimilarityBounds(t *testing.T) {
	var parser htmldom.Parser
	a := pathOf(&parser, 1, "td", "tr", "td")
	b := pathOf(&parser, 1, "li", "ul", "li")
	if s := similarity(a, a); s != 1 {
		t.Errorf("self similarity = %g", s)
	}
	if s := similarity(a, b); s != 0 {
		t.Errorf("disjoint similarity = %g, want 0", s)
	}
	c := pathOf(&parser, 1, "td", "tr", "th")
	s := similarity(a, c)
	if s <= 0 || s >= 1 {
		t.Errorf("one-step-different similarity = %g, want in (0,1)", s)
	}
}

func TestSimilarityPropertyBounds(t *testing.T) {
	tags := []string{"div", "td", "tr", "table", "ul", "li", "p", "b"}
	var parser htmldom.Parser
	gen := func(r *rand.Rand) htmldom.Path {
		up, down := r.Intn(4), r.Intn(4)
		names := make([]string, up+1+down)
		for i := range names {
			names[i] = tags[r.Intn(len(tags))]
		}
		return pathOf(&parser, up, names...)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := gen(r), gen(r)
		s := similarity(p, q)
		if s < 0 || s > 1 {
			return false
		}
		// Symmetry.
		if s != similarity(q, p) {
			return false
		}
		// Identity.
		return similarity(p, p) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
