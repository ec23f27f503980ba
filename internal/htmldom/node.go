package htmldom

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// NodeKind enumerates DOM node types.
type NodeKind uint8

const (
	// ElementNode is a tag with children.
	ElementNode NodeKind = iota
	// TextNode is character data.
	TextNode
	// CommentNode is an HTML comment.
	CommentNode
	// DocumentNode is the synthetic root of a parsed document.
	DocumentNode
)

// Node is a node of the DOM tree.
type Node struct {
	Kind NodeKind
	// Tag is the element name for ElementNode ("" otherwise).
	Tag string
	// Text is the character data for TextNode and CommentNode.
	Text string
	// Attrs are the element attributes.
	Attrs []Attr

	// Parent is nil for the root; the children are a list from FirstChild
	// along NextSibling to LastChild.
	Parent, FirstChild, LastChild, NextSibling *Node

	// depth is the number of ancestors; step the element's path step as the
	// Parser numbered it (docStep on any other node).
	depth int32
	step  Step
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// appendChild attaches the new leaf child as the last child of n.
func (n *Node) appendChild(child *Node) {
	child.Parent = n
	if n.LastChild == nil {
		n.FirstChild = child
	} else {
		n.LastChild.NextSibling = child
	}
	n.LastChild = child
	child.depth = n.depth + 1
}

// InnerText concatenates all descendant text with single-space normalisation.
func (n *Node) InnerText() string {
	// A table cell or a heading holds one text node: nothing to join.
	switch only, found := n.soleText(0); found {
	case 0:
		return ""
	case 1:
		return NormalizeSpace(only.Text)
	}
	var b strings.Builder
	n.collectText(&b)
	return NormalizeSpace(b.String())
}

// soleText counts the text nodes under n on top of found, giving up at two,
// and returns the last one it saw.
func (n *Node) soleText(found int) (*Node, int) {
	if n.Kind == TextNode {
		return n, found + 1
	}
	var last *Node
	for c := n.FirstChild; c != nil && found < 2; c = c.NextSibling {
		if t, f := c.soleText(found); f > found {
			last, found = t, f
		}
	}
	return last, found
}

func (n *Node) collectText(b *strings.Builder) {
	if n.Kind == TextNode {
		b.WriteString(n.Text)
		b.WriteByte(' ')
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		c.collectText(b)
	}
}

// NormalizeSpace collapses runs of whitespace into single spaces and trims.
// A string already in that form — most text of a generated page — is
// returned as it is.
func NormalizeSpace(s string) string {
	if isSpaceNormal(s) {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

// isSpaceNormal reports whether NormalizeSpace would leave s unchanged: its
// only white space is single ' ' between other characters.
func isSpaceNormal(s string) bool {
	lastSpace := true // a leading space is not normal
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ':
			if lastSpace {
				return false
			}
			lastSpace = true
			continue
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(s[i:])
			if unicode.IsSpace(r) {
				return false
			}
			i += size - 1
		case c <= '\r' && c >= '\t':
			return false
		}
		lastSpace = false
	}
	return !lastSpace || s == ""
}

// Walk visits n and all its descendants in document order. If fn returns
// false for a node its subtree is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		c.Walk(fn)
	}
}

// Find returns the first descendant element with the given tag, or nil.
func (n *Node) Find(tag string) *Node {
	var found *Node
	n.Walk(func(c *Node) bool {
		if found != nil {
			return false
		}
		if c.Kind == ElementNode && c.Tag == tag {
			found = c
			return false
		}
		return true
	})
	return found
}

// FindAll returns every descendant element with the given tag in document
// order.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Kind == ElementNode && c.Tag == tag {
			out = append(out, c)
		}
		return true
	})
	return out
}

// Render serialises the subtree back to HTML.
func (n *Node) Render() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	switch n.Kind {
	case DocumentNode:
		n.renderChildren(b)
	case TextNode:
		// Script and style bodies are raw text in HTML: the tokenizer reads
		// them without entity decoding, so rendering must not escape them.
		if n.Parent != nil && (n.Parent.Tag == "script" || n.Parent.Tag == "style") {
			b.WriteString(n.Text)
		} else {
			b.WriteString(EscapeText(n.Text))
		}
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Text)
		b.WriteString("-->")
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Tag)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			b.WriteString(`="`)
			b.WriteString(EscapeText(a.Val))
			b.WriteByte('"')
		}
		if isVoid(n.Tag) {
			b.WriteString("/>")
			return
		}
		b.WriteByte('>')
		n.renderChildren(b)
		b.WriteString("</")
		b.WriteString(n.Tag)
		b.WriteByte('>')
	}
}

func (n *Node) renderChildren(b *strings.Builder) {
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		c.render(b)
	}
}
