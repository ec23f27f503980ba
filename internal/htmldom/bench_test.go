package htmldom

import (
	"strings"
	"testing"
)

func benchPage() string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>Bench</title></head><body>")
	b.WriteString(`<h1 class="entity">Bench Entity</h1><table class="infobox">`)
	for i := 0; i < 60; i++ {
		b.WriteString("<tr><th>Label ")
		b.WriteString(strings.Repeat("x", i%7))
		b.WriteString(":</th><td><b>Value ")
		b.WriteString(strings.Repeat("y", i%11))
		b.WriteString("</b></td></tr>")
	}
	b.WriteString("</table>")
	for i := 0; i < 20; i++ {
		b.WriteString(`<div class="ad"><span>Advertisement</span></div><p>Some filler &amp; text.</p>`)
	}
	b.WriteString("</body></html>")
	return b.String()
}

func BenchmarkTokenize(b *testing.B) {
	page := benchPage()
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(page)
	}
}

func BenchmarkParse(b *testing.B) {
	page := benchPage()
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(page)
	}
}

// BenchmarkParserReuse is BenchmarkParse the way a domx shard parses: one
// parser, reset between sites.
func BenchmarkParserReuse(b *testing.B) {
	page := benchPage()
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	var p Parser
	for i := 0; i < b.N; i++ {
		p.Reset()
		p.Parse(page)
	}
}

func BenchmarkPathBetween(b *testing.B) {
	doc := Parse(benchPage())
	h1 := doc.Find("h1")
	tds := doc.FindAll("td")
	var buf []Step
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, td := range tds {
			p, ok := PathBetween(h1, td, buf)
			if !ok {
				b.Fatal("no path")
			}
			buf = p.Steps
		}
	}
}

// BenchmarkSimilarity is Algorithm 1's inner loop on one page: the label
// paths form the prepared pattern set, every value cell is queried
// against it.
func BenchmarkSimilarity(b *testing.B) {
	doc := Parse(benchPage())
	h1 := doc.Find("h1")
	var ps PatternSet
	for _, th := range doc.FindAll("th") {
		p, _ := PathBetween(h1, th, nil)
		ps.Add(p)
	}
	var queries []Path
	for _, td := range doc.FindAll("td") {
		p, _ := PathBetween(h1, td, nil)
		queries = append(queries, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range queries {
			benchSink = ps.BestSimilarity(p)
		}
	}
}

var benchSink float64

func BenchmarkRender(b *testing.B) {
	doc := Parse(benchPage())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = doc.Render()
	}
}
