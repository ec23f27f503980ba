package htmldom

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// isVoid reports whether tag never has children: its start tag is complete
// by itself.
func isVoid(tag string) bool {
	switch tag {
	case "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
		"meta", "param", "source", "track", "wbr":
		return true
	}
	return false
}

// impliedEnd reports whether an open element is implicitly closed when a
// start tag of one of its group arrives (a small practical subset of the
// HTML5 tree-construction rules): a new <li> closes an open <li>.
func impliedEnd(open, start string) bool {
	switch open {
	case "li", "tr", "option":
		return start == open
	case "p":
		switch start {
		case "p", "div", "table", "ul", "ol", "h1", "h2", "h3":
			return true
		}
	case "td", "th":
		return start == "td" || start == "th" || start == "tr"
	case "dt", "dd":
		return start == "dt" || start == "dd"
	}
	return false
}

// Doc is one parsed page.
type Doc struct {
	// Root is the DocumentNode whose children are the page's top-level
	// nodes.
	Root *Node
	// Texts lists the text nodes outside <head> in document order: the
	// nodes Algorithm 1 reads entity names, labels and values from. None is
	// blank — the parser builds no node for whitespace between elements.
	Texts []*Node
}

// Parser builds DOM trees out of arrays it keeps, so that parsing a page
// costs no allocation per node, and numbers the path steps of the elements
// it sees (see Step). The zero value is ready to use. A Parser must not be
// used from two goroutines at once.
//
// Every tree parsed since the last Reset stays valid until the next one;
// Reset hands their memory to the trees parsed after it. Step numbers last
// as long as the Parser: the same tag and class get the same number on
// every page.
type Parser struct {
	steps map[stepKey]Step
	names []string // step number → "tag.class"

	nodes []Node  // the array nodes are cut from; len is what is handed out
	texts []*Node // the array the Docs' Texts are cut from
	attrs attrSlab
	stack []openElement
}

// openElement is one entry of the tree builder's stack of open elements.
type openElement struct {
	node *Node
	// inHead: the element is <head> or inside one.
	inHead bool
}

// stepKey identifies a path step before it has a number.
type stepKey struct{ tag, class string }

// Parse builds a DOM tree from HTML source. The returned node is a
// DocumentNode whose children are the top-level nodes. Parsing is resilient:
// stray end tags are ignored and unclosed elements are closed at EOF.
func Parse(src string) *Node {
	var p Parser
	return p.Parse(src).Root
}

// Reset ends the life of every tree the parser has built: their nodes are
// handed out again.
func (p *Parser) Reset() {
	clear(p.nodes)
	p.nodes = p.nodes[:0]
	clear(p.texts)
	p.texts = p.texts[:0]
	p.attrs.reset()
}

// Parse is the package's Parse on the parser's arrays.
func (p *Parser) Parse(src string) Doc {
	if p.steps == nil {
		p.init(len(src))
	}
	doc := p.newNode()
	doc.Kind = DocumentNode
	stack := append(p.stack[:0], openElement{node: doc})
	firstText := len(p.texts)

	sc := scanner{src: src, attrs: &p.attrs}
	for sc.next() {
		tok := &sc.tok
		top := stack[len(stack)-1]
		switch tok.Kind {
		case TokenText:
			// Skip pure-whitespace runs between elements to keep trees
			// compact; meaningful text always has non-space characters.
			if isBlank(tok.Data) {
				continue
			}
			n := p.newNode()
			n.Kind, n.Text = TextNode, tok.Data
			top.node.AppendChild(n)
			if !top.inHead {
				p.texts = append(p.texts, n)
			}
		case TokenComment:
			n := p.newNode()
			n.Kind, n.Text = CommentNode, tok.Data
			top.node.AppendChild(n)
		case TokenDoctype:
			// Dropped: the tree does not model doctypes.
		case TokenSelfClosing:
			top.node.AppendChild(p.newElement(tok))
		case TokenStartTag:
			// Apply implied-end rules: e.g. a new <li> closes an open <li>.
			for len(stack) > 1 && impliedEnd(top.node.Tag, tok.Data) {
				stack = stack[:len(stack)-1]
				top = stack[len(stack)-1]
			}
			el := p.newElement(tok)
			top.node.AppendChild(el)
			if !isVoid(tok.Data) {
				stack = append(stack, openElement{node: el, inHead: top.inHead || tok.Data == "head"})
			}
		case TokenEndTag:
			// Pop to the matching open tag if one exists; otherwise ignore.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].node.Tag == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
	clear(stack[:cap(stack)]) // the stack outlives the tree
	p.stack = stack[:0]
	return Doc{Root: doc, Texts: p.texts[firstText:len(p.texts):len(p.texts)]}
}

// init readies a zero Parser for a first page of the given size: arrays of a
// page's size, so that the one-shot Parse does not grow each from nothing. A
// generated page has a node for every 12 to 18 bytes.
func (p *Parser) init(pageBytes int) {
	p.nodes = make([]Node, 0, max(32, pageBytes/10))
	p.steps = make(map[stepKey]Step, 16)
	p.names = append(make([]string, 0, 16), "#doc") // docStep
	p.texts = make([]*Node, 0, 64)
	p.attrs.buf = make([]Attr, 0, 16)
	p.stack = make([]openElement, 0, 16)
}

// newNode cuts a zero node from the parser's array. A full array is left to
// the nodes it holds and a larger one started.
func (p *Parser) newNode() *Node {
	if len(p.nodes) == cap(p.nodes) {
		p.nodes = make([]Node, 0, max(64, 2*cap(p.nodes)))
	}
	p.nodes = p.nodes[:len(p.nodes)+1]
	return &p.nodes[len(p.nodes)-1]
}

func (p *Parser) newElement(tok *Token) *Node {
	n := p.newNode()
	n.Kind, n.Tag, n.Attrs = ElementNode, tok.Data, tok.Attrs
	class := ""
	for i := range tok.Attrs {
		if tok.Attrs[i].Key == "class" {
			class = firstField(tok.Attrs[i].Val)
			break
		}
	}
	n.step = p.intern(tok.Data, class)
	return n
}

// intern returns the number of the step "tag.class" — the bare tag when
// class, the first token of the element's class attribute, is empty —
// numbering it if it is new to the parser.
func (p *Parser) intern(tag, class string) Step {
	if s, ok := p.steps[stepKey{tag, class}]; ok {
		return s
	}
	// The name is built once; the key is cut from it, not from the page.
	name := strings.Clone(tag)
	if class != "" {
		name = tag + "." + class
		class = name[len(tag)+1:]
	}
	s := Step(len(p.names) << 1)
	// Presentational tags are noise on a path ("noisy tags" in Algorithm 1);
	// a class-qualified one ("span.k") is structure and kept.
	if class == "" && noisyTags[tag] {
		s |= noisyStep
	}
	p.names = append(p.names, name)
	p.steps[stepKey{name[:len(tag)], class}] = s
	return s
}

// firstField returns the first whitespace-separated token of s, "" if there
// is none: strings.Fields(s)[0] without the slice.
func firstField(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= utf8.RuneSelf { // not one plain token
			s = strings.TrimLeftFunc(s, unicode.IsSpace)
			if end := strings.IndexFunc(s, unicode.IsSpace); end >= 0 {
				return s[:end]
			}
			return s
		}
	}
	return s
}

// isBlank reports whether s has no character that is not white space: what
// NormalizeSpace(s) == "" says, by a scan.
func isBlank(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf {
			return strings.TrimSpace(s[i:]) == "" // rare: U+0085, U+00A0, U+2000…
		} else if !isSpace(c) && c != '\v' && c != '\f' {
			return false
		}
	}
	return true
}
