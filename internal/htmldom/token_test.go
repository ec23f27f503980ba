package htmldom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize(`<html><body class="main">Hello <b>world</b></body></html>`)
	wantKinds := []TokenKind{
		TokenStartTag, TokenStartTag, TokenText, TokenStartTag,
		TokenText, TokenEndTag, TokenEndTag, TokenEndTag,
	}
	if len(toks) != len(wantKinds) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(wantKinds), toks)
	}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("token %d kind = %v, want %v", i, toks[i].Kind, k)
		}
	}
	if v, ok := toks[1].Attr("class"); !ok || v != "main" {
		t.Errorf("body class attr = %q, %v", v, ok)
	}
}

func TestTokenizeSelfClosingAndVoid(t *testing.T) {
	toks := Tokenize(`<br/><img src="x.png"/><hr />`)
	for i, tok := range toks {
		if tok.Kind != TokenSelfClosing {
			t.Errorf("token %d kind = %v, want selfclosing", i, tok.Kind)
		}
	}
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	if v, _ := toks[1].Attr("src"); v != "x.png" {
		t.Errorf("img src = %q", v)
	}
}

func TestTokenizeCommentAndDoctype(t *testing.T) {
	toks := Tokenize(`<!DOCTYPE html><!-- a comment --><p>x</p>`)
	if toks[0].Kind != TokenDoctype {
		t.Errorf("first token %v, want doctype", toks[0].Kind)
	}
	if toks[1].Kind != TokenComment || !strings.Contains(toks[1].Data, "a comment") {
		t.Errorf("second token %+v, want comment", toks[1])
	}
}

func TestTokenizeAttributes(t *testing.T) {
	toks := Tokenize(`<div id=plain class='single' data-x="double quoted" disabled>`)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens", len(toks))
	}
	tok := toks[0]
	cases := map[string]string{
		"id":     "plain",
		"class":  "single",
		"data-x": "double quoted",
	}
	for k, want := range cases {
		if v, ok := tok.Attr(k); !ok || v != want {
			t.Errorf("attr %q = %q, %v; want %q", k, v, ok, want)
		}
	}
	if _, ok := tok.Attr("disabled"); !ok {
		t.Error("boolean attribute missing")
	}
	if _, ok := tok.Attr("absent"); ok {
		t.Error("absent attribute found")
	}
}

func TestTokenizeMalformed(t *testing.T) {
	// Unclosed tag degrades to text; never panics.
	cases := []string{
		"<notclosed",
		"just text",
		"< >",
		"<<>>",
		"text <b>bold",
		"<!-- unterminated comment",
		`<a href="unterminated>`,
	}
	for _, src := range cases {
		toks := Tokenize(src)
		_ = toks // must simply not panic and produce something sane
	}
}

func TestTokenizeScriptRawText(t *testing.T) {
	toks := Tokenize(`<script>if (a < b) { x() }</script><p>after</p>`)
	if toks[0].Kind != TokenStartTag || toks[0].Data != "script" {
		t.Fatalf("first token %+v", toks[0])
	}
	if toks[1].Kind != TokenText || !strings.Contains(toks[1].Data, "a < b") {
		t.Fatalf("script body not raw text: %+v", toks[1])
	}
	if toks[2].Kind != TokenEndTag || toks[2].Data != "script" {
		t.Fatalf("expected </script>, got %+v", toks[2])
	}
}

// TestRawTextEndTagSearchesTheSource: the end of a script or style body is
// looked for in the source's own bytes. Searching a lower-cased copy gives an
// offset into the copy: "Ⱥ" (U+023A) grows from two bytes to three there and
// the offset overshot the source (a panic, slice bounds out of range); "İ"
// (U+0130) and "K" (U+212A) shrink, so the body was cut short and its tail
// read as markup.
func TestRawTextEndTagSearchesTheSource(t *testing.T) {
	for _, body := range []string{
		strings.Repeat("Ⱥ", 40),
		strings.Repeat("İ", 7) + " <b>not a tag</b> " + strings.Repeat("K", 5),
		"a</scrİpt>b", // İ lower-cases to i, but is not one
	} {
		for _, tag := range []string{"script", "STYLE"} {
			src := "<" + tag + ">" + body + "</" + tag + "><p>after</p>"
			toks := Tokenize(src)
			if len(toks) != 6 {
				t.Fatalf("%q: %d tokens, want 6: %+v", src, len(toks), toks)
			}
			if toks[1].Kind != TokenText || toks[1].Data != body {
				t.Errorf("%q: raw text = %q, want the whole body", src, toks[1].Data)
			}
			if toks[2].Kind != TokenEndTag || toks[2].Data != strings.ToLower(tag) {
				t.Errorf("%q: third token %+v, want the end tag", src, toks[2])
			}
			if got := Parse(src).Find("p"); got == nil || got.InnerText() != "after" {
				t.Errorf("%q: the paragraph after the element was lost", src)
			}
		}
	}
	// Many raw-text elements: each body is searched once, not the rest of
	// the document lower-cased once per element.
	many := strings.Repeat("<script>x</script>", 2000)
	if toks := Tokenize(many); len(toks) != 6000 {
		t.Errorf("%d tokens for 2000 scripts, want 6000", len(toks))
	}
}

func TestEntityRoundTrip(t *testing.T) {
	cases := []string{
		"a & b", "1 < 2", "x > y", `say "hi"`, "plain",
	}
	for _, s := range cases {
		if got := UnescapeEntities(EscapeText(s)); got != s {
			t.Errorf("entity round trip %q -> %q", s, got)
		}
	}
}

func TestEntityRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		return UnescapeEntities(EscapeText(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTokenKindString(t *testing.T) {
	kinds := []TokenKind{TokenText, TokenStartTag, TokenEndTag, TokenSelfClosing, TokenComment, TokenDoctype}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("kind %d has bad string %q", k, s)
		}
		seen[s] = true
	}
}
