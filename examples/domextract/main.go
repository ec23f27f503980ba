// Domextract walks through Algorithm 1 (DOM-tree attribute extraction) on a
// generated film website: it shows the page DOM, the tag paths between the
// entity node and seed attribute labels, the induced patterns, and the new
// attributes and triples the algorithm recognises.
package main

import (
	"context"
	"fmt"
	"strings"

	"akb/internal/confidence"
	"akb/internal/extract"
	"akb/internal/extract/domx"
	"akb/internal/htmldom"
	"akb/internal/kb"
	"akb/internal/webgen"
)

func main() {
	w := kb.NewWorld(kb.WorldConfig{Seed: 21, EntitiesPerClass: 12, AttrsPerEntity: 12})
	sites := webgen.GenerateSites(w, webgen.SiteConfig{
		Seed: 22, SitesPerClass: 2, PagesPerSite: 8, AttrsPerPage: 7,
		ValueErrorRate: 0.05, NoiseNodes: 4, JitterProb: 0.3,
	})

	// Pick the first Film site and show its first page.
	var filmSite *webgen.Site
	for _, s := range sites {
		if s.Class == "Film" {
			filmSite = s
			break
		}
	}
	page := filmSite.Pages[0]
	fmt.Printf("Site %s (style %q), page %s about %q\n\n",
		filmSite.Host, filmSite.Style, page.URL, page.Entity)

	var parser htmldom.Parser
	doc := parser.Parse(page.HTML)
	idx := extract.NewEntityIndexFromWorld(w)

	// Show the tag path from the entity node to each label node.
	fmt.Println("Tag paths from the entity node to attribute labels:")
	var entityNode *htmldom.Node
	for _, tn := range doc.Texts {
		if htmldom.NormalizeSpace(tn.Text) == page.Entity {
			entityNode = tn
			break
		}
	}
	for _, tn := range doc.Texts {
		text := htmldom.NormalizeSpace(tn.Text)
		if !strings.HasSuffix(text, ":") {
			continue
		}
		if p, ok := htmldom.PathBetween(entityNode, tn, nil); ok {
			fmt.Printf("  %-28s %s\n", text, parser.PathString(p.Normalize(nil)))
		}
	}

	// Seed with six curated attributes per class, then run Algorithm 1.
	seeds := make(map[string]extract.AttrSet)
	for _, cls := range w.Ontology.ClassNames() {
		s := extract.NewAttrSet()
		for i, a := range w.Ontology.Class(cls).AttributeNames() {
			if i == 6 {
				break
			}
			s.Add(a, "seed")
		}
		seeds[cls] = s
	}
	res := domx.Extract(context.Background(), domx.FromWebgen(sites), idx, seeds, domx.DefaultConfig(), confidence.Default())

	fmt.Println("\nPer-class extraction outcome:")
	for _, cls := range res.Classes() {
		cr := res.PerClass[cls]
		fmt.Printf("  %-12s pages used %2d, induced patterns %2d, discovered %2d new attrs\n",
			cls, cr.PagesUsed, cr.InducedPatterns, cr.Discovered.Len())
		for _, name := range cr.Discovered.Names() {
			ev := cr.Discovered[name]
			fmt.Printf("      + %-28s support=%d sites=%d conf=%.2f\n",
				name, ev.Support, len(ev.Sources), ev.Confidence)
		}
	}

	stmts := res.AppendStatements(nil)
	fmt.Printf("\nExtracted statements: %d; first five:\n", len(stmts))
	for _, s := range stmts[:min(5, len(stmts))] {
		fmt.Printf("  %s\n", s)
	}
}
