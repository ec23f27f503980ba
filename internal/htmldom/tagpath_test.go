package htmldom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func infoboxDoc() *Node {
	return Parse(`<html><body>
	<h1 class="entity">Casablanca</h1>
	<table class="infobox">
	  <tr><th>Director</th><td>Michael Curtiz</td></tr>
	  <tr><th>Genre</th><td><b>Drama</b></td></tr>
	</table>
	</body></html>`)
}

func TestPathBetweenSameRow(t *testing.T) {
	doc := infoboxDoc()
	ths := doc.FindAll("th")
	tds := doc.FindAll("td")
	p, ok := PathBetween(ths[0], tds[0])
	if !ok {
		t.Fatal("no path between th and td in same row")
	}
	if p.Apex != "tr" {
		t.Errorf("apex = %q, want tr", p.Apex)
	}
	if p.String() != "th^tr(td)" {
		t.Errorf("path = %q, want th^tr(td)", p.String())
	}
}

func TestPathBetweenAcrossRows(t *testing.T) {
	doc := infoboxDoc()
	h1 := doc.Find("h1")
	tds := doc.FindAll("td")
	p0, ok0 := PathBetween(h1, tds[0])
	p1, ok1 := PathBetween(h1, tds[1])
	if !ok0 || !ok1 {
		t.Fatal("paths not found")
	}
	if p0.Apex != "body" || p1.Apex != "body" {
		t.Errorf("apexes = %q, %q; want body", p0.Apex, p1.Apex)
	}
	// Second path passes through <b>; after normalisation both are equal.
	if !p0.Equal(p1) {
		t.Errorf("template paths should be equal after normalisation: %q vs %q",
			p0.Normalize().String(), p1.Normalize().String())
	}
	if similarity(p0, p1) != 1 {
		t.Errorf("similarity = %g, want 1", similarity(p0, p1))
	}
}

func TestPathBetweenTextNodes(t *testing.T) {
	doc := infoboxDoc()
	texts := doc.TextNodes()
	// Find the text nodes for "Director" and "Michael Curtiz".
	var dir, curtiz *Node
	for _, tn := range texts {
		switch NormalizeSpace(tn.Text) {
		case "Director":
			dir = tn
		case "Michael Curtiz":
			curtiz = tn
		}
	}
	if dir == nil || curtiz == nil {
		t.Fatal("text nodes not found")
	}
	p, ok := PathBetween(dir, curtiz)
	if !ok || p.Apex != "tr" {
		t.Fatalf("path between text nodes = %v, %v", p, ok)
	}
}

func TestPathBetweenDifferentTrees(t *testing.T) {
	a := Parse(`<p>one</p>`).Find("p")
	b := Parse(`<p>two</p>`).Find("p")
	if _, ok := PathBetween(a, b); ok {
		t.Error("path found across distinct trees")
	}
}

func TestPathSelf(t *testing.T) {
	doc := infoboxDoc()
	h1 := doc.Find("h1")
	p, ok := PathBetween(h1, h1)
	if !ok || p.Apex != "h1" || len(p.Up) != 0 || len(p.Down) != 0 {
		t.Errorf("self path = %+v, %v", p, ok)
	}
	if p.Len() != 1 {
		t.Errorf("self path Len = %d, want 1", p.Len())
	}
}

func TestNormalizeRemovesNoisyTags(t *testing.T) {
	p := TagPath{Up: []string{"b", "td"}, Apex: "tr", Down: []string{"span", "td", "i"}}
	n := p.Normalize()
	if len(n.Up) != 1 || n.Up[0] != "td" {
		t.Errorf("normalised up = %v", n.Up)
	}
	if len(n.Down) != 1 || n.Down[0] != "td" {
		t.Errorf("normalised down = %v", n.Down)
	}
}

func TestSimilarityBounds(t *testing.T) {
	a := TagPath{Up: []string{"td"}, Apex: "tr", Down: []string{"td"}}
	b := TagPath{Up: []string{"li"}, Apex: "ul", Down: []string{"li"}}
	if s := similarity(a, a); s != 1 {
		t.Errorf("self similarity = %g", s)
	}
	if s := similarity(a, b); s != 0 {
		t.Errorf("disjoint similarity = %g, want 0", s)
	}
	c := TagPath{Up: []string{"td"}, Apex: "tr", Down: []string{"th"}}
	s := similarity(a, c)
	if s <= 0 || s >= 1 {
		t.Errorf("one-step-different similarity = %g, want in (0,1)", s)
	}
}

func TestSimilarityPropertyBounds(t *testing.T) {
	tags := []string{"div", "td", "tr", "table", "ul", "li", "p", "b"}
	gen := func(r *rand.Rand) TagPath {
		mk := func() []string {
			n := r.Intn(4)
			out := make([]string, n)
			for i := range out {
				out[i] = tags[r.Intn(len(tags))]
			}
			return out
		}
		return TagPath{Up: mk(), Apex: tags[r.Intn(len(tags))], Down: mk()}
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

func TestPathToRoot(t *testing.T) {
	doc := infoboxDoc()
	td := doc.FindAll("td")[0]
	got := PathToRoot(td)
	want := []string{"td", "tr", "table", "body", "html"}
	if len(got) != len(want) {
		t.Fatalf("PathToRoot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{nil, nil, 0},
		{[]string{"a"}, nil, 1},
		{nil, []string{"a", "b"}, 2},
		{[]string{"a", "b", "c"}, []string{"a", "x", "c"}, 1},
		{[]string{"a", "b"}, []string{"b", "a"}, 2},
		{[]string{"a", "b", "c"}, []string{"a", "b", "c"}, 0},
	}
	for _, c := range cases {
		if got := new(PatternSet).editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
