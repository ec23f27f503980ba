package htmldom_test

import (
	"testing"

	"akb/internal/htmldom"
)

// FuzzParse asserts the parser never panics, that its tree keeps the
// invariants (checkTree), and that re-parsing the render of a parse is
// structurally stable (parse ∘ render is idempotent after one round).
func FuzzParse(f *testing.F) {
	for _, s := range htmldom.FuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var p htmldom.Parser
		doc := p.Parse(src)
		checkTree(t, &p, doc.Root, "fuzz input")
		r1 := doc.Root.Render()
		r2 := htmldom.Parse(r1).Render()
		if r1 != r2 {
			t.Fatalf("render not stable:\n1: %q\n2: %q", r1, r2)
		}
	})
}

// FuzzParseMatchesReference holds what a parser that has parsed a page
// before builds to its references, as TestParseMatchesReference and
// TestPathsMatchReference do on fixed pages: the tree keeps the invariants,
// lists its body texts and is the tree the one-shot Parse builds
// (checkParse), and its paths are the walks up Parent links (checkPaths).
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range htmldom.FuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var p htmldom.Parser
		p.Parse(`<p class="x">a page before</p>`) // the parser is not new
		doc := checkParse(t, &p, src, "fuzz input")
		if len(src) <= 400 { // pairs of texts: quadratic
			checkPaths(t, &p, doc, "fuzz input")
		}
	})
}

// FuzzTokenize asserts the tokenizer never panics and only emits valid
// token kinds.
func FuzzTokenize(f *testing.F) {
	f.Add("<p class='x'>text</p>")
	f.Add("<!doctype html><!-- x -->")
	f.Add("a < b > c & d")
	for _, s := range htmldom.FuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, tok := range htmldom.Tokenize(src) {
			if tok.Kind > htmldom.TokenDoctype {
				t.Fatalf("invalid token kind %d", tok.Kind)
			}
		}
	})
}
