package htmldom_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"akb/internal/htmldom"
	"akb/internal/kb"
	"akb/internal/webgen"
)

// This file holds every parsed tree and every tag path to what the package's
// doc comments say they are, stated over the package's own types: the links
// and depths of a tree, the elements' path steps, Doc.Texts, and a path as
// the walk up Parent links from both ends to where they meet.

// voidTags never have children (isVoid).
var voidTags = []string{"area", "base", "br", "col", "embed", "hr", "img", "input", "link",
	"meta", "param", "source", "track", "wbr"}

// impliedEnds lists, for each tag, the start tags that close it when it is
// the open element (impliedEnd).
var impliedEnds = map[string][]string{
	"li":     {"li"},
	"tr":     {"tr"},
	"option": {"option"},
	"p":      {"p", "div", "table", "ul", "ol", "h1", "h2", "h3"},
	"td":     {"td", "th", "tr"},
	"th":     {"td", "th", "tr"},
	"dt":     {"dt", "dd"},
	"dd":     {"dt", "dd"},
}

// stepOf is what an element's step is: its tag and the first token of its
// class attribute, if it has one, and the step's name.
func stepOf(p *htmldom.Parser, n *htmldom.Node) (htmldom.Step, string) {
	if class, ok := n.Attr("class"); ok {
		if fields := strings.Fields(class); len(fields) > 0 {
			return p.Intern(n.Tag, fields[0]), n.Tag + "." + fields[0]
		}
	}
	return p.Intern(n.Tag, ""), n.Tag
}

// checkTree holds a tree p built to its invariants: the root is a document
// node at depth 0; every child points back at its parent, the children run
// from FirstChild along NextSibling to LastChild, and each sits one deeper
// than its parent; an element's step is (tag, first class token), any other
// node's the document's; no text node is blank; text, comments and void
// elements have no children, and an element whose start tag closes its
// parent's (an implied end) can only be a childless one, from a self-closing
// tag.
func checkTree(t testing.TB, p *htmldom.Parser, root *htmldom.Node, where string) {
	t.Helper()
	if root.Kind != htmldom.DocumentNode || root.Parent != nil || root.NextSibling != nil || htmldom.DepthOf(root) != 0 ||
		p.StepName(htmldom.StepOf(root)) != "#doc" {
		t.Fatalf("%s: root is %+v at depth %d", where, root, htmldom.DepthOf(root))
	}
	root.Walk(func(n *htmldom.Node) bool {
		if n.Kind == htmldom.ElementNode {
			if want, name := stepOf(p, n); htmldom.StepOf(n) != want || p.StepName(want) != name {
				t.Fatalf("%s: <%s %v> has step %q, want %q", where, n.Tag, n.Attrs, p.StepName(htmldom.StepOf(n)), name)
			}
		} else if htmldom.StepOf(n) != htmldom.DocStep {
			t.Fatalf("%s: %v node %q has step %q", where, n.Kind, n.Text, p.StepName(htmldom.StepOf(n)))
		}
		if n.Kind == htmldom.TextNode && strings.TrimSpace(n.Text) == "" {
			t.Fatalf("%s: blank text node %q", where, n.Text)
		}
		if (n.FirstChild == nil) != (n.LastChild == nil) {
			t.Fatalf("%s: <%s> has first child %p and last child %p", where, n.Tag, n.FirstChild, n.LastChild)
		}
		if n.FirstChild != nil && (n.Kind == htmldom.TextNode || n.Kind == htmldom.CommentNode || slices.Contains(voidTags, n.Tag)) {
			t.Fatalf("%s: %v node <%s>%q has children", where, n.Kind, n.Tag, n.Text)
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.Parent != n {
				t.Fatalf("%s: a child of <%s> does not point back at it", where, n.Tag)
			}
			if htmldom.DepthOf(c) != htmldom.DepthOf(n)+1 {
				t.Fatalf("%s: <%s> at depth %d under <%s> at depth %d", where, c.Tag, htmldom.DepthOf(c), n.Tag, htmldom.DepthOf(n))
			}
			if c.NextSibling == nil && c != n.LastChild {
				t.Fatalf("%s: the last child of <%s> is not its LastChild", where, n.Tag)
			}
			if c.Kind == htmldom.ElementNode && c.FirstChild != nil && slices.Contains(impliedEnds[n.Tag], c.Tag) {
				t.Fatalf("%s: <%s> with children inside <%s>, which its start tag closes", where, c.Tag, n.Tag)
			}
		}
		return true
	})
}

// bodyTexts is what Doc.Texts is: the non-blank text nodes in document order
// (the tree has no other), leaving out those with a <head> above them.
func bodyTexts(root *htmldom.Node) []*htmldom.Node {
	var out []*htmldom.Node
	root.Walk(func(n *htmldom.Node) bool {
		if n.Kind != htmldom.TextNode {
			return true
		}
		for up := n.Parent; up != nil; up = up.Parent {
			if up.Kind == htmldom.ElementNode && up.Tag == "head" {
				return true
			}
		}
		out = append(out, n)
		return true
	})
	return out
}

// sameShape reports whether two trees have the same nodes — kind, tag,
// attributes and text — in the same places.
func sameShape(a, b *htmldom.Node) bool {
	if a.Kind != b.Kind || a.Tag != b.Tag || a.Text != b.Text || !slices.Equal(a.Attrs, b.Attrs) {
		return false
	}
	x, y := a.FirstChild, b.FirstChild
	for ; x != nil && y != nil; x, y = x.NextSibling, y.NextSibling {
		if !sameShape(x, y) {
			return false
		}
	}
	return x == nil && y == nil
}

// checkParse parses src with p, which may have parsed other pages since its
// last Reset, and holds the tree to its invariants, its Texts to bodyTexts,
// and the whole to the tree the one-shot Parse builds.
func checkParse(t testing.TB, p *htmldom.Parser, src, where string) htmldom.Doc {
	t.Helper()
	doc := p.Parse(src)
	checkTree(t, p, doc.Root, where)
	if want := bodyTexts(doc.Root); !slices.Equal(doc.Texts, want) {
		t.Fatalf("%s: Texts holds %d nodes, want the %d text nodes outside <head>", where, len(doc.Texts), len(want))
	}
	if !sameShape(doc.Root, htmldom.Parse(src)) {
		t.Fatalf("%s: a reused parser and Parse build different trees", where)
	}
	return doc
}

// parentPath is the tag path between two nodes as Path's doc comment defines
// it, by Parent links: the elements climbed from from's element to below the
// first ancestor the two share, that ancestor, and the elements descended
// from it to to's element.
func parentPath(from, to *htmldom.Node) (htmldom.Path, bool) {
	elementOf := func(n *htmldom.Node) *htmldom.Node {
		if n.Kind == htmldom.ElementNode {
			return n
		}
		return n.Parent
	}
	var up []*htmldom.Node
	for x := elementOf(from); x != nil; x = x.Parent {
		up = append(up, x)
	}
	var down []*htmldom.Node
	for y := elementOf(to); y != nil; y = y.Parent {
		k := slices.Index(up, y)
		if k < 0 {
			down = append(down, y)
			continue
		}
		var p htmldom.Path
		for _, n := range up[:k] {
			p.Steps = append(p.Steps, htmldom.StepOf(n))
		}
		p.Apex = len(p.Steps)
		p.Steps = append(p.Steps, htmldom.StepOf(y))
		for i := len(down) - 1; i >= 0; i-- {
			p.Steps = append(p.Steps, htmldom.StepOf(down[i]))
		}
		return p, true
	}
	return htmldom.Path{}, false
}

// checkPaths holds the path between every ordered pair of doc's texts to
// parentPath, its normal form to the path without its legs' presentational
// steps, and its similarity to a pattern set of a third of the page's paths
// to refBestSimilarity; and each text's ancestor steps to the up-leg of its
// path to the document node.
func checkPaths(t testing.TB, p *htmldom.Parser, doc htmldom.Doc, where string) {
	t.Helper()
	var ps htmldom.PatternSet
	var patterns []htmldom.Path
	var buf, normBuf []htmldom.Step
	for i, from := range doc.Texts {
		var up []htmldom.Step
		for x := from.Parent; x.Kind == htmldom.ElementNode; x = x.Parent {
			up = append(up, htmldom.StepOf(x))
		}
		if got := htmldom.AncestorSteps(from, buf); !slices.Equal(got, up) {
			t.Fatalf("%s: ancestor steps of text %d = %v, want %v", where, i, got, up)
		}
		ps.Reset()
		patterns = patterns[:0]
		for j, to := range doc.Texts {
			path, ok := htmldom.PathBetween(from, to, buf)
			want, wantOK := parentPath(from, to)
			if ok != wantOK || !slices.Equal(path.Steps, want.Steps) || path.Apex != want.Apex {
				t.Fatalf("%s: path %d→%d = %q, %v; want %q, %v", where, i, j, p.PathString(path), ok, p.PathString(want), wantOK)
			}
			buf = path.Steps
			norm := path.Normalize(normBuf)
			normBuf = norm.Steps
			if steps, apex := normalSteps(p, want); !slices.Equal(norm.Steps, steps) || norm.Apex != apex {
				t.Fatalf("%s: normalised path %d→%d = %q, want %q", where, i, j, p.PathString(norm), p.PathString(htmldom.Path{Steps: steps, Apex: apex}))
			}
			if got, want := ps.BestSimilarity(path), refBestSimilarity(p, want, patterns); got != want {
				t.Fatalf("%s: similarity of path %d→%d to %d patterns = %v, want %v", where, i, j, len(patterns), got, want)
			}
			if j%3 == 0 { // a third of the paths become patterns for the ones after
				ps.Add(path)
				patterns = append(patterns, want)
			}
		}
	}
}

// referencePages generates the pages the rules tests read: two seeds, with
// jitter and noise nodes.
func referencePages() []*webgen.Page {
	var pages []*webgen.Page
	for _, seed := range []int64{5, 11} {
		w := kb.NewWorld(kb.WorldConfig{Seed: seed, EntitiesPerClass: 12, AttrsPerEntity: 14})
		for _, s := range webgen.GenerateSites(w, webgen.SiteConfig{
			Seed: seed, SitesPerClass: 4, PagesPerSite: 6, AttrsPerPage: 8,
			ValueErrorRate: 0.1, NoiseNodes: 5, JitterProb: 0.3,
		}) {
			pages = append(pages, s.Pages...)
		}
	}
	return pages
}

// TestParseMatchesReference: every generated page and fuzz seed parses to a
// tree that keeps the invariants and lists its body texts — through one
// parser reset every few pages, as a domx shard uses it — and to the tree
// the one-shot Parse builds.
func TestParseMatchesReference(t *testing.T) {
	var p htmldom.Parser
	pages := referencePages()
	if len(pages) < 100 {
		t.Fatalf("only %d pages generated", len(pages))
	}
	for i, page := range pages {
		if i%6 == 0 {
			p.Reset()
		}
		checkParse(t, &p, page.HTML, page.URL)
	}
	for i, src := range htmldom.FuzzSeeds {
		checkParse(t, &p, src, fmt.Sprintf("fuzz seed %d", i))
	}
}

// TestPathsMatchReference: for every ordered pair of text nodes of generated
// pages and fuzz seeds, the path is the walk up Parent links, and its normal
// form and similarity follow from it.
func TestPathsMatchReference(t *testing.T) {
	var p htmldom.Parser
	pages := referencePages()
	for i := 0; i < len(pages); i += 3 { // every template, a third of the pages
		checkPaths(t, &p, p.Parse(pages[i].HTML), pages[i].URL)
	}
	for i, src := range htmldom.FuzzSeeds {
		checkPaths(t, &p, p.Parse(src), fmt.Sprintf("fuzz seed %d", i))
	}
	// Nodes of two trees have no path.
	a := p.Parse(`<p>one</p>`).Texts[0]
	b := p.Parse(`<p>two</p>`).Texts[0]
	if _, ok := htmldom.PathBetween(a, b, nil); ok {
		t.Error("path found between nodes of two trees")
	}
}

// TestEveryImpliedEndAndVoidTag: a start tag closes the open element exactly
// when it is one of that element's implied ends, and a void element takes no
// children.
func TestEveryImpliedEndAndVoidTag(t *testing.T) {
	var p htmldom.Parser
	starts := []string{"li", "tr", "option", "p", "div", "table", "ul", "ol", "h1", "h2", "h3", "td", "th", "dt", "dd", "span"}
	for open, ends := range impliedEnds {
		for _, start := range starts {
			src := "<" + open + ">a<" + start + ">b"
			el := checkParse(t, &p, src, src).Root.FirstChild
			if closed := el.NextSibling != nil && el.NextSibling.Tag == start; closed != slices.Contains(ends, start) {
				t.Errorf("%s: <%s> closed = %v", src, open, closed)
			}
		}
	}
	for _, tag := range voidTags {
		src := "<p><" + tag + ">b</p>"
		if el := checkParse(t, &p, src, src).Root.FirstChild.FirstChild; el.Tag != tag || el.FirstChild != nil || el.NextSibling == nil {
			t.Errorf("%s: <%s> took the text after it", src, tag)
		}
	}
}
