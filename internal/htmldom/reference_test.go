package htmldom_test

import (
	"fmt"
	"strings"
	"testing"

	"akb/internal/htmldom"
	"akb/internal/kb"
	"akb/internal/webgen"
)

// This file keeps the forms the parser and the tag paths had before they
// worked on slabs and numbers — a token slice, a node per allocation, a map
// of ancestors per path, steps as strings — as the references the present
// ones are held to, exactly.

var refVoidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

var refImpliedEnd = map[string]map[string]bool{
	"li":     {"li": true},
	"p":      {"p": true, "div": true, "table": true, "ul": true, "ol": true, "h1": true, "h2": true, "h3": true},
	"td":     {"td": true, "th": true, "tr": true},
	"th":     {"td": true, "th": true, "tr": true},
	"tr":     {"tr": true},
	"option": {"option": true},
	"dt":     {"dt": true, "dd": true},
	"dd":     {"dt": true, "dd": true},
}

// refNode is the reference tree: what a Node held, children as a slice.
type refNode struct {
	kind     htmldom.NodeKind
	tag      string
	text     string
	attrs    []htmldom.Attr
	parent   *refNode
	children []*refNode
}

func (n *refNode) append(c *refNode) {
	c.parent = n
	n.children = append(n.children, c)
}

// refParse is the tree builder over the token slice.
func refParse(src string) *refNode {
	doc := &refNode{kind: htmldom.DocumentNode}
	stack := []*refNode{doc}
	top := func() *refNode { return stack[len(stack)-1] }
	for _, tok := range htmldom.Tokenize(src) {
		switch tok.Kind {
		case htmldom.TokenText:
			if strings.Join(strings.Fields(tok.Data), " ") == "" {
				continue
			}
			top().append(&refNode{kind: htmldom.TextNode, text: tok.Data})
		case htmldom.TokenComment:
			top().append(&refNode{kind: htmldom.CommentNode, text: tok.Data})
		case htmldom.TokenDoctype:
		case htmldom.TokenSelfClosing:
			top().append(&refNode{kind: htmldom.ElementNode, tag: tok.Data, attrs: tok.Attrs})
		case htmldom.TokenStartTag:
			for len(stack) > 1 {
				if closers, ok := refImpliedEnd[top().tag]; ok && closers[tok.Data] {
					stack = stack[:len(stack)-1]
					continue
				}
				break
			}
			el := &refNode{kind: htmldom.ElementNode, tag: tok.Data, attrs: tok.Attrs}
			top().append(el)
			if !refVoidElements[tok.Data] {
				stack = append(stack, el)
			}
		case htmldom.TokenEndTag:
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].tag == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return doc
}

// refBodyTexts is domx's bodyTextNodes: the non-blank text nodes in
// document order, those with a <head> above them left out.
func refBodyTexts(doc *refNode) []*refNode {
	var out []*refNode
	var walk func(n *refNode)
	walk = func(n *refNode) {
		if n.kind == htmldom.TextNode && strings.Join(strings.Fields(n.text), " ") != "" {
			underHead := false
			for cur := n.parent; cur != nil; cur = cur.parent {
				if cur.kind == htmldom.ElementNode && cur.tag == "head" {
					underHead = true
				}
			}
			if !underHead {
				out = append(out, n)
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(doc)
	return out
}

// TagPath is a tag path in strings.
type TagPath struct {
	Up   []string
	Apex string
	Down []string
}

// refQualifiedStep renders "tag.class" using the first token of the class
// attribute, or the bare tag when the element has no class.
func refQualifiedStep(n *refNode) string {
	for _, a := range n.attrs {
		if a.Key == "class" {
			if fields := strings.Fields(a.Val); len(fields) > 0 {
				return n.tag + "." + fields[0]
			}
			break
		}
	}
	return n.tag
}

func refElementOf(n *refNode) *refNode {
	if n == nil || n.kind == htmldom.ElementNode {
		return n
	}
	return n.parent
}

// refPathBetween finds the common ancestor in a map of from's ancestors.
func refPathBetween(from, to *refNode) (TagPath, bool) {
	a, b := refElementOf(from), refElementOf(to)
	if a == nil || b == nil {
		return TagPath{}, false
	}
	anc := map[*refNode]bool{}
	for cur := a; cur != nil; cur = cur.parent {
		anc[cur] = true
	}
	var lca *refNode
	for cur := b; cur != nil; cur = cur.parent {
		if anc[cur] {
			lca = cur
			break
		}
	}
	if lca == nil {
		return TagPath{}, false
	}
	var p TagPath
	for cur := a; cur != lca; cur = cur.parent {
		if cur.kind == htmldom.ElementNode {
			p.Up = append(p.Up, refQualifiedStep(cur))
		}
	}
	p.Apex = "#doc"
	if lca.kind == htmldom.ElementNode {
		p.Apex = refQualifiedStep(lca)
	}
	for cur := b; cur != lca; cur = cur.parent {
		if cur.kind == htmldom.ElementNode {
			p.Down = append([]string{refQualifiedStep(cur)}, p.Down...)
		}
	}
	return p, true
}

var refNoisyTags = map[string]bool{
	"b": true, "i": true, "em": true, "strong": true, "u": true,
	"span": true, "small": true, "font": true, "abbr": true, "sub": true,
	"sup": true, "mark": true,
}

// refNoisy: only bare presentational tags are noise; "span.k" is structure.
func refNoisy(step string) bool {
	return !strings.Contains(step, ".") && refNoisyTags[step]
}

// Normalize returns a copy with the noisy tags removed from both legs.
func (p TagPath) Normalize() TagPath {
	out := TagPath{Apex: p.Apex}
	for _, t := range p.Up {
		if !refNoisy(t) {
			out.Up = append(out.Up, t)
		}
	}
	for _, t := range p.Down {
		if !refNoisy(t) {
			out.Down = append(out.Down, t)
		}
	}
	return out
}

// String renders the path canonically: "td^tr^table(tr/td)".
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

// numbered writes a reference path in the parser's numbers.
func numbered(p *htmldom.Parser, tp TagPath) htmldom.Path {
	step := func(s string) htmldom.Step {
		if s == "#doc" {
			return htmldom.DocStep
		}
		tag, class, _ := strings.Cut(s, ".")
		return p.Intern(tag, class)
	}
	var out htmldom.Path
	for _, s := range tp.Up {
		out.Steps = append(out.Steps, step(s))
	}
	out.Apex = len(out.Steps)
	out.Steps = append(out.Steps, step(tp.Apex))
	for _, s := range tp.Down {
		out.Steps = append(out.Steps, step(s))
	}
	return out
}

// sameTree compares a parsed tree with the reference's, node by node: kind,
// tag, attributes, text and the order of the children. It returns the
// nodes paired in document order.
func sameTree(t *testing.T, got *htmldom.Node, want *refNode, where string) (nodes []*htmldom.Node, refs []*refNode) {
	t.Helper()
	var walk func(g *htmldom.Node, w *refNode, at string)
	walk = func(g *htmldom.Node, w *refNode, at string) {
		if g.Kind != w.kind || g.Tag != w.tag || g.Text != w.text || fmt.Sprint(g.Attrs) != fmt.Sprint(w.attrs) || len(g.Attrs) != len(w.attrs) {
			t.Fatalf("%s: node %s is {%v %q %q %v}, reference {%v %q %q %v}", where, at, g.Kind, g.Tag, g.Text, g.Attrs, w.kind, w.tag, w.text, w.attrs)
		}
		nodes, refs = append(nodes, g), append(refs, w)
		i := 0
		for c := g.FirstChild; c != nil; c = c.NextSibling {
			if i >= len(w.children) {
				t.Fatalf("%s: node %s has more children than the reference's %d", where, at, len(w.children))
			}
			if c.Parent != g {
				t.Fatalf("%s: child %d of %s does not point back at it", where, i, at)
			}
			walk(c, w.children[i], fmt.Sprintf("%s/%d", at, i))
			i++
		}
		if i != len(w.children) {
			t.Fatalf("%s: node %s has %d children, reference %d", where, at, i, len(w.children))
		}
		if i > 0 && g.LastChild.NextSibling != nil {
			t.Fatalf("%s: last child of %s has a sibling", where, at)
		}
	}
	walk(got, want, "")
	return nodes, refs
}

// checkParse holds one document to the reference: the tree, and the list of
// body texts the parser records on the way.
func checkParse(t *testing.T, p *htmldom.Parser, src, where string) {
	t.Helper()
	doc, ref := p.Parse(src), refParse(src)
	nodes, refs := sameTree(t, doc.Root, ref, where)
	refOf := make(map[*htmldom.Node]*refNode, len(nodes))
	for i, n := range nodes {
		refOf[n] = refs[i]
	}
	want := refBodyTexts(ref)
	if len(doc.Texts) != len(want) {
		t.Fatalf("%s: %d body texts, reference %d", where, len(doc.Texts), len(want))
	}
	for i, tn := range doc.Texts {
		if refOf[tn] != want[i] {
			t.Fatalf("%s: body text %d is %q, reference %q", where, i, tn.Text, want[i].text)
		}
	}
	// The one-shot form builds the same tree.
	sameTree(t, htmldom.Parse(src), ref, where+" (Parse)")
}

// referencePages generates the pages the reference tests read: two seeds,
// with jitter and noise nodes.
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

// TestParseMatchesReference: the streaming, slab-cutting parser builds the
// reference's tree on every generated page — through one parser that is
// reset every few pages, as a domx shard uses it — and on the fuzz seeds.
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

// checkPaths compares every ordered pair of body texts of one page: ok, the
// canonical string, the normalised string, and the similarity to a pattern
// set of the page's first few paths.
func checkPaths(t *testing.T, p *htmldom.Parser, src, where string) {
	t.Helper()
	doc, ref := p.Parse(src), refParse(src)
	refTexts := refBodyTexts(ref)
	if len(doc.Texts) != len(refTexts) {
		t.Fatalf("%s: %d body texts, reference %d", where, len(doc.Texts), len(refTexts))
	}
	var ps htmldom.PatternSet
	var patterns []TagPath
	var buf, normBuf []htmldom.Step
	for i, from := range doc.Texts {
		ps.Reset()
		patterns = patterns[:0]
		for j, to := range doc.Texts {
			path, ok := htmldom.PathBetween(from, to, buf)
			want, wantOK := refPathBetween(refTexts[i], refTexts[j])
			if ok != wantOK {
				t.Fatalf("%s: path %d→%d ok = %v, reference %v", where, i, j, ok, wantOK)
			}
			if !ok {
				continue
			}
			buf = path.Steps
			if got := p.PathString(path); got != want.String() {
				t.Fatalf("%s: path %d→%d = %q, reference %q", where, i, j, got, want.String())
			}
			norm := path.Normalize(normBuf)
			normBuf = norm.Steps
			if got := p.PathString(norm); got != want.Normalize().String() {
				t.Fatalf("%s: normalised path %d→%d = %q, reference %q", where, i, j, got, want.Normalize().String())
			}
			if got, want := ps.BestSimilarity(path), refBestSimilarity(want, patterns); got != want {
				t.Fatalf("%s: similarity of path %d→%d to %v = %v, reference %v", where, i, j, patterns, got, want)
			}
			if j%3 == 0 { // a third of the paths become patterns for the ones after
				ps.Add(path)
				patterns = append(patterns, want)
			}
		}
	}
}

// TestPathsMatchReference: paths as number sequences say what the string
// paths said, for every ordered pair of text nodes of generated pages.
func TestPathsMatchReference(t *testing.T) {
	var p htmldom.Parser
	pages := referencePages()
	for i := 0; i < len(pages); i += 3 { // every template, a third of the pages
		checkPaths(t, &p, pages[i].HTML, pages[i].URL)
	}
	for i, src := range htmldom.FuzzSeeds {
		checkPaths(t, &p, src, fmt.Sprintf("fuzz seed %d", i))
	}
	// Nodes of two trees have no path.
	a := p.Parse(`<p>one</p>`).Texts[0]
	b := p.Parse(`<p>two</p>`).Texts[0]
	if _, ok := htmldom.PathBetween(a, b, nil); ok {
		t.Error("path found between nodes of two trees")
	}
}

// FuzzParseMatchesReference holds the parser, its body-text list and its
// paths to the references on whatever bytes the fuzzer finds.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range htmldom.FuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var p htmldom.Parser
		checkParse(t, &p, src, "fuzz input")
		if len(src) <= 400 { // pairs of texts: quadratic
			checkPaths(t, &p, src, "fuzz input")
		}
	})
}
