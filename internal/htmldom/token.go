// Package htmldom implements an HTML tokenizer, a DOM tree builder, and the
// tag-path machinery used by the DOM-tree attribute extractor (Algorithm 1 in
// the paper). It is written from scratch against a pragmatic subset of HTML:
// start/end/self-closing tags with attributes, text, comments, doctype, void
// elements, and implicit closing for common table/list/paragraph tags. That
// subset covers everything the synthetic website generator (internal/webgen)
// produces and the regular template-driven pages the paper's algorithm
// targets.
package htmldom

import (
	"strings"
)

// TokenKind enumerates the token types produced by the tokenizer.
type TokenKind uint8

const (
	// TokenText is a run of character data between tags.
	TokenText TokenKind = iota
	// TokenStartTag is an opening tag, possibly with attributes.
	TokenStartTag
	// TokenEndTag is a closing tag.
	TokenEndTag
	// TokenSelfClosing is a tag closed inline, e.g. <br/>.
	TokenSelfClosing
	// TokenComment is an HTML comment.
	TokenComment
	// TokenDoctype is a <!DOCTYPE ...> declaration.
	TokenDoctype
)

// String returns a readable token-kind name.
func (k TokenKind) String() string {
	switch k {
	case TokenText:
		return "text"
	case TokenStartTag:
		return "start"
	case TokenEndTag:
		return "end"
	case TokenSelfClosing:
		return "selfclosing"
	case TokenComment:
		return "comment"
	case TokenDoctype:
		return "doctype"
	default:
		return "unknown"
	}
}

// Attr is a single tag attribute.
type Attr struct {
	Key string
	Val string
}

// Token is one lexical unit of an HTML document.
type Token struct {
	Kind TokenKind
	// Data is the tag name (lowercased) for tag tokens, the text content for
	// text tokens, or the raw body for comments/doctype.
	Data  string
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it is present.
func (t Token) Attr(key string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Tokenize splits an HTML document into tokens. It never fails: malformed
// markup degrades to text tokens, mirroring browser resilience.
func Tokenize(src string) []Token {
	var out []Token
	sc := scanner{src: src}
	for sc.next() {
		out = append(out, sc.tok)
	}
	return out
}

// scanner reads the tokens of one document in order; Tokenize collects
// them, the tree builder consumes them one at a time.
type scanner struct {
	src string
	pos int
	// rawTag names the raw-text element ("script", "style") whose start tag
	// was the last token: what follows, up to its end tag, is one opaque
	// text token.
	rawTag string
	// attrs is where tag attributes are cut from; nil gives every tag a
	// slice of its own.
	attrs *attrSlab
	// tok is the token next read.
	tok Token
}

// next reads the next token into tok, false at the end of the document.
func (s *scanner) next() bool {
	src := s.src
	for s.pos < len(src) {
		i := s.pos
		if s.rawTag != "" {
			idx := indexEndTag(src[i:], s.rawTag)
			s.rawTag = ""
			if idx < 0 {
				return s.text(src[i:])
			}
			s.pos = i + idx
			// An end tag the input ends inside — "</style" with no '>'
			// after it — is dropped with the rest of the input. Kept as
			// text, it would render inside the element,
			// before the end tag the renderer closes it with, and a re-parse
			// would read it as that end tag: "<style>0</style" would render
			// as "<style>0</style</style>", which parses as
			// "<style>0</style>".
			if strings.IndexByte(src[s.pos:], '>') < 0 {
				s.pos = len(src)
			}
			if idx > 0 {
				s.tok = Token{Kind: TokenText, Data: src[i : i+idx]}
				return true
			}
			continue
		}
		if lt := strings.IndexByte(src[i:], '<'); lt < 0 {
			return s.text(src[i:])
		} else if lt > 0 {
			return s.text(src[i : i+lt])
		}
		// src[i] == '<'
		if strings.HasPrefix(src[i:], "<!--") {
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				s.pos = len(src)
				s.tok = Token{Kind: TokenComment, Data: src[i+4:]}
				return true
			}
			s.pos = i + 4 + end + 3
			s.tok = Token{Kind: TokenComment, Data: src[i+4 : i+4+end]}
			return true
		}
		gt := strings.IndexByte(src[i:], '>')
		if gt < 0 {
			return s.text(src[i:])
		}
		if len(src) > i+1 && src[i+1] == '!' {
			s.pos = i + gt + 1
			s.tok = Token{Kind: TokenDoctype, Data: strings.TrimSpace(src[i+2 : i+gt])}
			return true
		}
		if !s.tag(src[i+1 : i+gt]) {
			return s.text(src[i : i+gt+1])
		}
		s.pos = i + gt + 1
		// Raw-text elements: script and style content is opaque.
		if s.tok.Kind == TokenStartTag && (s.tok.Data == "script" || s.tok.Data == "style") {
			s.rawTag = s.tok.Data
		}
		return true
	}
	return false
}

// text reads the non-empty character data t, which starts at the scanner's
// position.
func (s *scanner) text(t string) bool {
	s.pos += len(t)
	s.tok = Token{Kind: TokenText, Data: UnescapeEntities(t)}
	return true
}

// indexEndTag returns the offset of the first "</"+tag in s, -1 if there is
// none. tag is lower-case ASCII and matches either case of each letter —
// and only those: 'K' (U+212A) is not a k. The offset is one into s itself,
// which a search of strings.ToLower(s) does not give: lower-casing changes
// the length of some runes.
func indexEndTag(s, tag string) int {
	for from := 0; ; {
		lt := strings.IndexByte(s[from:], '<')
		if lt < 0 {
			return -1
		}
		at := from + lt
		if rest := s[at+1:]; len(rest) > len(tag) && rest[0] == '/' && equalFoldASCII(rest[1:1+len(tag)], tag) {
			return at
		}
		from = at + 1
	}
}

// equalFoldASCII reports whether s, with its ASCII capitals lower-cased, is
// the lower-case string of the same length.
func equalFoldASCII(s, lower string) bool {
	for i := 0; i < len(lower); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// tag reads what stands between '<' and '>' as a tag, false if it is none.
func (s *scanner) tag(raw string) bool {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return false
	}
	kind := TokenStartTag
	if raw[0] == '/' {
		kind = TokenEndTag
		raw = strings.TrimSpace(raw[1:])
	} else if strings.HasSuffix(raw, "/") {
		kind = TokenSelfClosing
		raw = strings.TrimSpace(raw[:len(raw)-1])
	}
	if raw == "" {
		return false
	}
	// Tag name: letters, digits, '-'.
	n := 0
	for n < len(raw) && isTagNameChar(raw[n]) {
		n++
	}
	if n == 0 {
		return false
	}
	s.tok = Token{Kind: kind, Data: strings.ToLower(raw[:n])}
	if kind != TokenEndTag {
		s.tok.Attrs = parseAttrs(raw[n:], s.attrs)
	}
	return true
}

func isTagNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-'
}

// attrSlab hands out the attribute slices of many tags from one array, one
// tag after the other.
type attrSlab struct {
	buf []Attr
}

// append adds a to attrs, the attributes read so far of the tag being
// parsed. In a slab they are the tail of its array; when that grows, the
// tags before keep the old one.
func (sl *attrSlab) append(attrs []Attr, a Attr) []Attr {
	if sl == nil {
		return append(attrs, a)
	}
	sl.buf = append(sl.buf, a)
	end := len(sl.buf)
	return sl.buf[end-len(attrs)-1 : end : end]
}

// reset makes the slab's current array free again.
func (sl *attrSlab) reset() {
	clear(sl.buf)
	sl.buf = sl.buf[:0]
}

func parseAttrs(s string, slab *attrSlab) []Attr {
	var attrs []Attr
	i := 0
	for i < len(s) {
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) {
			break
		}
		// Attribute name.
		start := i
		for i < len(s) && s[i] != '=' && !isSpace(s[i]) {
			i++
		}
		name := strings.ToLower(s[start:i])
		if name == "" {
			i++
			continue
		}
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			attrs = slab.append(attrs, Attr{Key: name})
			continue
		}
		i++ // consume '='
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		var val string
		if i < len(s) && (s[i] == '"' || s[i] == '\'') {
			quote := s[i]
			i++
			end := strings.IndexByte(s[i:], quote)
			if end < 0 {
				val = s[i:]
				i = len(s)
			} else {
				val = s[i : i+end]
				i += end + 1
			}
		} else {
			start = i
			for i < len(s) && !isSpace(s[i]) {
				i++
			}
			val = s[start:i]
		}
		attrs = slab.append(attrs, Attr{Key: name, Val: UnescapeEntities(val)})
	}
	return attrs
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

var entityReplacer = strings.NewReplacer(
	"&amp;", "&",
	"&lt;", "<",
	"&gt;", ">",
	"&quot;", `"`,
	"&#39;", "'",
	"&apos;", "'",
	"&nbsp;", " ",
)

var escapeReplacer = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
)

// UnescapeEntities decodes the named character references produced by
// EscapeText plus &nbsp; and numeric apostrophes.
func UnescapeEntities(s string) string {
	if strings.IndexByte(s, '&') < 0 {
		return s
	}
	return entityReplacer.Replace(s)
}

// EscapeText encodes text so it can be embedded in an HTML document.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, `&<>"`) {
		return s
	}
	return escapeReplacer.Replace(s)
}
