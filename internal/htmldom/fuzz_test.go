package htmldom

import (
	"testing"
)

// FuzzParse asserts the parser never panics and that re-parsing the render
// of a parse is structurally stable (parse ∘ render is idempotent after one
// round).
func FuzzParse(f *testing.F) {
	for _, s := range FuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)
		r1 := doc.Render()
		doc2 := Parse(r1)
		r2 := doc2.Render()
		if r1 != r2 {
			t.Fatalf("render not stable:\n1: %q\n2: %q", r1, r2)
		}
	})
}

// FuzzTokenize asserts the tokenizer never panics and only emits valid
// token kinds.
func FuzzTokenize(f *testing.F) {
	f.Add("<p class='x'>text</p>")
	f.Add("<!doctype html><!-- x -->")
	f.Add("a < b > c & d")
	for _, s := range FuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, tok := range Tokenize(src) {
			if tok.Kind > TokenDoctype {
				t.Fatalf("invalid token kind %d", tok.Kind)
			}
		}
	})
}
