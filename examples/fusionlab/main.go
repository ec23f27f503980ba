// Fusionlab demonstrates the knowledge-fusion methods on hand-built
// conflicting claims, including the paper's own example: (Susie Fang,
// birth place, Wuhan) and (Susie Fang, birth place, China) are both true
// because values form a hierarchy. It compares VOTE, ACCU, POPACCU,
// multi-truth and the hierarchy-aware composition on the same claims.
package main

import (
	"fmt"

	"akb/internal/fusion"
	"akb/internal/hierarchy"
	"akb/internal/rdf"
)

func claim(entity, attr, value, source string, conf float64) rdf.Statement {
	return rdf.S(
		rdf.T(rdf.AKB.IRI(entity), rdf.AKB.IRI("attr/"+attr), rdf.Literal(value)),
		rdf.Provenance{Source: source, Extractor: "demo"},
		conf,
	)
}

func main() {
	forest := hierarchy.NewForest()
	forest.MustAddChain("Wuhan", "Hubei", "China")
	forest.MustAddChain("Shanghai", "China")
	forest.MustAddChain("Adelaide", "South Australia", "Australia")

	stmts := []rdf.Statement{
		// The paper's example: Susie Fang's birth place claimed at two
		// abstraction levels plus a wrong value with plurality support.
		claim("Susie_Fang", "birth place", "Wuhan", "uni-site.example", 0.9),
		claim("Susie_Fang", "birth place", "Wuhan", "cv-site.example", 0.8),
		claim("Susie_Fang", "birth place", "China", "news-a.example", 0.7),
		claim("Susie_Fang", "birth place", "China", "news-b.example", 0.7),
		claim("Susie_Fang", "birth place", "Shanghai", "scraper-1.example", 0.4),
		claim("Susie_Fang", "birth place", "Shanghai", "scraper-2.example", 0.4),
		claim("Susie_Fang", "birth place", "Shanghai", "scraper-3.example", 0.4),

		// A non-functional attribute with two true values.
		claim("Casablanca", "producer", "Hal Wallis", "films-a.example", 0.9),
		claim("Casablanca", "producer", "Hal Wallis", "films-b.example", 0.9),
		claim("Casablanca", "producer", "Jack Warner", "films-a.example", 0.8),
		claim("Casablanca", "producer", "Jack Warner", "films-c.example", 0.8),
		claim("Casablanca", "producer", "Nobody Real", "scraper-1.example", 0.3),

		// A plain functional attribute with a clear majority.
		claim("Casablanca", "director", "Michael Curtiz", "films-a.example", 0.9),
		claim("Casablanca", "director", "Michael Curtiz", "films-b.example", 0.9),
		claim("Casablanca", "director", "Woody Allen", "scraper-1.example", 0.3),
	}
	// Background items that expose the scrapers' unreliability to the
	// quality-estimating methods.
	for i := 0; i < 12; i++ {
		good := fmt.Sprintf("fact %d", i)
		bad := fmt.Sprintf("junk %d", i)
		e := fmt.Sprintf("Entity_%d", i)
		stmts = append(stmts,
			claim(e, "note", good, "films-a.example", 0.9),
			claim(e, "note", good, "films-b.example", 0.9),
			claim(e, "note", good, "news-a.example", 0.8),
			claim(e, "note", bad, "scraper-1.example", 0.4),
			claim(e, "note", bad, "scraper-2.example", 0.4),
			claim(e, "note", bad, "scraper-3.example", 0.4),
		)
	}

	claims := fusion.BuildClaims(stmts, fusion.BySource)
	fmt.Printf("%d items, %d values, %d sources\n\n",
		len(claims.Items), countValues(claims), len(claims.SourceNames))

	methods := []fusion.Method{
		&fusion.Vote{},
		&fusion.Vote{Weighted: true},
		&fusion.Accu{},
		&fusion.Accu{Popularity: true},
		&fusion.MultiTruth{},
		&fusion.Hierarchical{Base: &fusion.MultiTruth{Weighted: true}, Forest: forest},
		&fusion.Full{Forest: forest},
	}
	show := []struct{ entity, attr string }{
		{"Susie_Fang", "birth place"},
		{"Casablanca", "producer"},
		{"Casablanca", "director"},
	}
	for _, m := range methods {
		res := m.Fuse(claims)
		fmt.Printf("== %s ==\n", res.Method)
		for _, q := range show {
			key := rdf.T(rdf.AKB.IRI(q.entity), rdf.AKB.IRI("attr/"+q.attr), rdf.Term{}).ItemKey()
			d := res.Decision(key)
			var vals []string
			for _, t := range d.Truths {
				vals = append(vals, t.Value)
			}
			fmt.Printf("  %-12s %-12s -> %v\n", q.entity, q.attr, vals)
		}
		fmt.Println()
	}
	fmt.Println("Note how the flat single-truth methods pick Shanghai (3 scraper votes),")
	fmt.Println("and how ACCU/POPACCU fall into the scrapers' echo chamber — their")
	fmt.Println("perfect mutual agreement inflates their learned accuracy. The")
	fmt.Println("hierarchy-aware methods accept both Wuhan and China, the multi-truth")
	fmt.Println("methods keep both producers, and FULL's copy detection defuses the")
	fmt.Println("scraper cluster.")
}

func countValues(c *fusion.Claims) int {
	n := 0
	for _, it := range c.Items {
		n += len(it.Values)
	}
	return n
}
