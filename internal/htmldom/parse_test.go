package htmldom

import (
	"strings"
	"testing"
)

const samplePage = `<!DOCTYPE html>
<html>
<head><title>Casablanca (1942)</title></head>
<body>
  <div id="content">
    <h1 class="entity">Casablanca</h1>
    <table class="infobox">
      <tr><th>Director</th><td>Michael Curtiz</td></tr>
      <tr><th>Release date</th><td>1942</td></tr>
      <tr><th>Genre</th><td><a href="/g/drama">Drama</a></td></tr>
    </table>
    <p>Plot summary here.</p>
  </div>
</body>
</html>`

func TestParseStructure(t *testing.T) {
	doc := Parse(samplePage)
	if doc.Kind != DocumentNode {
		t.Fatal("root is not a document node")
	}
	html := doc.Find("html")
	if html == nil {
		t.Fatal("no html element")
	}
	h1 := doc.Find("h1")
	if h1 == nil || h1.InnerText() != "Casablanca" {
		t.Fatalf("h1 = %v", h1)
	}
	rows := doc.FindAll("tr")
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	ths := doc.FindAll("th")
	tds := doc.FindAll("td")
	if len(ths) != 3 || len(tds) != 3 {
		t.Fatalf("got %d th, %d td; want 3, 3", len(ths), len(tds))
	}
	if tds[0].InnerText() != "Michael Curtiz" {
		t.Errorf("first td = %q", tds[0].InnerText())
	}
	if tds[2].InnerText() != "Drama" {
		t.Errorf("anchor td = %q", tds[2].InnerText())
	}
}

func TestParseImpliedEnds(t *testing.T) {
	doc := Parse(`<ul><li>one<li>two<li>three</ul>`)
	lis := doc.FindAll("li")
	if len(lis) != 3 {
		t.Fatalf("got %d li, want 3", len(lis))
	}
	for i, want := range []string{"one", "two", "three"} {
		if got := lis[i].InnerText(); got != want {
			t.Errorf("li %d = %q, want %q", i, got, want)
		}
		if lis[i].Parent.Tag != "ul" {
			t.Errorf("li %d parent = %q, want ul", i, lis[i].Parent.Tag)
		}
	}
	// td implied by next tr
	doc2 := Parse(`<table><tr><td>a<td>b<tr><td>c</table>`)
	if got := len(doc2.FindAll("td")); got != 3 {
		t.Errorf("got %d td, want 3", got)
	}
	if got := len(doc2.FindAll("tr")); got != 2 {
		t.Errorf("got %d tr, want 2", got)
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse(`<p>one<br>two<img src="x"></p>`)
	p := doc.Find("p")
	if p == nil {
		t.Fatal("no p")
	}
	if br := doc.Find("br"); br == nil || br.FirstChild != nil {
		t.Error("br missing or has children")
	}
	if got := p.InnerText(); got != "one two" {
		t.Errorf("p text = %q", got)
	}
}

func TestParseIgnoresStrayEndTags(t *testing.T) {
	doc := Parse(`</div><p>ok</p></span>`)
	if p := doc.Find("p"); p == nil || p.InnerText() != "ok" {
		t.Fatal("stray end tags broke parse")
	}
}

func TestParseUnclosedAtEOF(t *testing.T) {
	doc := Parse(`<div><p>text`)
	if p := doc.Find("p"); p == nil || p.InnerText() != "text" {
		t.Fatal("unclosed elements not recovered at EOF")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	doc := Parse(samplePage)
	rendered := doc.Render()
	doc2 := Parse(rendered)
	// Structural equality: same tags, same texts in the same order.
	var tags1, tags2, texts1, texts2 []string
	collect := func(n *Node, tags, texts *[]string) {
		n.Walk(func(c *Node) bool {
			if c.Kind == ElementNode {
				*tags = append(*tags, c.Tag)
			}
			if c.Kind == TextNode {
				*texts = append(*texts, NormalizeSpace(c.Text))
			}
			return true
		})
	}
	collect(doc, &tags1, &texts1)
	collect(doc2, &tags2, &texts2)
	if strings.Join(tags1, ",") != strings.Join(tags2, ",") {
		t.Errorf("tags differ:\n%v\n%v", tags1, tags2)
	}
	if strings.Join(texts1, "|") != strings.Join(texts2, "|") {
		t.Errorf("texts differ:\n%v\n%v", texts1, texts2)
	}
}

func TestFindByAttr(t *testing.T) {
	doc := Parse(samplePage)
	got := doc.FindByAttr("class", "infobox")
	if len(got) != 1 || got[0].Tag != "table" {
		t.Fatalf("FindByAttr = %v", got)
	}
	if len(doc.FindByAttr("class", "nope")) != 0 {
		t.Error("found nonexistent attr value")
	}
}

func TestTextNodes(t *testing.T) {
	doc := Parse(`<div> <p>alpha</p> <p> </p> <p>beta</p> </div>`)
	tn := doc.TextNodes()
	if len(tn) != 2 {
		t.Fatalf("got %d text nodes, want 2", len(tn))
	}
	if NormalizeSpace(tn[0].Text) != "alpha" || NormalizeSpace(tn[1].Text) != "beta" {
		t.Errorf("text nodes = %q, %q", tn[0].Text, tn[1].Text)
	}
}

func TestNodeHelpers(t *testing.T) {
	doc := Parse(samplePage)
	td := doc.FindAll("td")[0]
	if td.Depth() == 0 {
		t.Error("td depth should be > 0")
	}
	if td.Root() != doc {
		t.Error("Root should return the document")
	}
	h1 := doc.Find("h1")
	if v, ok := h1.Attr("class"); !ok || v != "entity" {
		t.Errorf("h1 class = %q, %v", v, ok)
	}
	if _, ok := h1.Attr("id"); ok {
		t.Error("h1 has no id")
	}
}

func TestNewElementAndText(t *testing.T) {
	el := NewElement("div", "id", "x", "class", "y")
	el.AppendChild(NewText("hello"))
	if el.Render() != `<div id="x" class="y">hello</div>` {
		t.Errorf("Render = %q", el.Render())
	}
	el.AppendChild(NewElement("br"))
	if el.FirstChild.Parent != el || el.FirstChild.NextSibling != el.LastChild || el.LastChild.Depth() != 1 {
		t.Error("AppendChild bookkeeping wrong")
	}
}

func TestEntityDecodingInParse(t *testing.T) {
	doc := Parse(`<p>Tom &amp; Jerry &lt;3</p>`)
	if got := doc.Find("p").InnerText(); got != "Tom & Jerry <3" {
		t.Errorf("entity decoding: %q", got)
	}
}

// TestParseAllocationBound: a parser that has grown its arrays parses a
// page without allocating, however many nodes the page has — what is left
// is a copy per text or attribute that holds a character reference. The
// one-shot Parse pays for its arrays, which double: a few allocations more
// for ten times the nodes, not ten times as many.
func TestParseAllocationBound(t *testing.T) {
	page := func(rows int) string {
		var b strings.Builder
		b.WriteString(`<!DOCTYPE html><html><head><title>T</title></head><body><h1 class="entity-name">Name</h1><table class="infobox">`)
		for i := 0; i < rows; i++ {
			b.WriteString(`<tr><th>Label:</th><td><b>Value of it</b></td></tr>` + "\n")
		}
		b.WriteString(`</table><div class="ad">Advertisement</div></body></html>`)
		return b.String()
	}
	small, large := page(10), page(100)
	var p Parser
	p.Parse(large) // grows the arrays
	for _, src := range []string{small, large} {
		allocs := testing.AllocsPerRun(20, func() {
			p.Reset()
			if doc := p.Parse(src); len(doc.Texts) < 20 {
				t.Fatal("page not parsed")
			}
		})
		if allocs != 0 {
			t.Errorf("a warm parser allocated %.0f times on a page of %d bytes, want 0", allocs, len(src))
		}
	}
	oneShot := func(src string) float64 {
		return testing.AllocsPerRun(20, func() { Parse(src) })
	}
	a, b := oneShot(small), oneShot(large)
	t.Logf("Parse: %.0f allocations for 10 rows, %.0f for 100", a, b)
	if a > 30 || b > a+12 {
		t.Errorf("Parse allocated %.0f times for 10 rows and %.0f for 100; want at most 30, and a dozen more for the larger arrays", a, b)
	}
	entities := testing.AllocsPerRun(20, func() {
		p.Reset()
		p.Parse(`<p title="a &amp; b">Tom &amp; Jerry</p><p>plain</p>`)
	})
	if entities > 6 { // strings.Replacer's buffers and the string, for each of the two
		t.Errorf("two character references cost %.0f allocations, want at most 6", entities)
	}
}

// spaceCases are strings around the edges of "white space": ASCII and
// Unicode spaces, leading, trailing and doubled, invalid UTF-8.
var spaceCases = []string{
	"", " ", "a", "a b", "a  b", " a", "a ", "a\tb", "a\nb", "\va\f", "a\rb",
	"a\u00a0b", "\u0085", "a\u2003", "a\u2009b c", "a\u3000", "\u00e9 \u00e8", "\u00e9  \u00e8", "\u65e5\u672c \u8a9e",
	"a\xffb", "\xff", "a \xc2", "\xc2\xa0", " \t\n ", "x:y", "Release Date:",
}

// TestNormalizeSpaceMatchesReference: the fast path (an already normal
// string is returned as it is), the blank scan and the first-field scan
// agree with strings.Fields on every case.
func TestNormalizeSpaceMatchesReference(t *testing.T) {
	for _, s := range spaceCases {
		fields := strings.Fields(s)
		want := strings.Join(fields, " ")
		if got := NormalizeSpace(s); got != want {
			t.Errorf("NormalizeSpace(%q) = %q, want %q", s, got, want)
		}
		if got := isSpaceNormal(s); got != (s == want) {
			t.Errorf("isSpaceNormal(%q) = %v, want %v", s, got, s == want)
		}
		if got := isBlank(s); got != (want == "") {
			t.Errorf("isBlank(%q) = %v, want %v", s, got, want == "")
		}
		first := ""
		if len(fields) > 0 {
			first = fields[0]
		}
		if got := firstField(s); got != first {
			t.Errorf("firstField(%q) = %q, want %q", s, got, first)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { NormalizeSpace("Release Date:") }); allocs != 0 {
		t.Errorf("NormalizeSpace of a normal string allocated %.0f times", allocs)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b []Step
		want int
	}{
		{nil, nil, 0},
		{[]Step{2}, nil, 1},
		{nil, []Step{2, 4}, 2},
		{[]Step{2, 4, 6}, []Step{2, 8, 6}, 1},
		{[]Step{2, 4}, []Step{4, 2}, 2},
		{[]Step{2, 4, 6}, []Step{2, 4, 6}, 0},
	}
	for _, c := range cases {
		if got := new(PatternSet).editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
