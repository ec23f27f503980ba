// Quickstart runs the complete Figure-1 framework on a small synthetic
// world and prints what each phase produced: the seed attribute sets from
// existing KBs and the query stream, the open-Web extractions from DOM
// trees and text, and the fused, augmented knowledge base.
package main

import (
	"context"
	"fmt"
	"log"

	"akb/internal/core"
	"akb/internal/fusion"
	"akb/internal/kb"
	"akb/internal/querystream"
	"akb/internal/store"
	"akb/internal/webgen"
)

func main() {
	cfg := core.Config{
		Seed:     7,
		World:    kb.WorldConfig{Seed: 7, EntitiesPerClass: 20, AttrsPerEntity: 14},
		DBpedia:  kb.KBGenConfig{Seed: 8, Coverage: 0.6, ErrorRate: 0.02},
		Freebase: kb.KBGenConfig{Seed: 9, Coverage: 0.8, ErrorRate: 0.02},
		Stream: querystream.GenConfig{
			Seed: 10, TotalRecords: 8000,
			Plans: []querystream.ClassPlan{
				{Class: "Book", Relevant: 400, Credible: 12, NoncrediblePool: 10},
				{Class: "Film", Relevant: 600, Credible: 8, NoncrediblePool: 12},
				{Class: "Country", Relevant: 500, Credible: 15, NoncrediblePool: 12},
				{Class: "University", Relevant: 80, Credible: 4, NoncrediblePool: 8},
				{Class: "Hotel", Relevant: 40, Credible: 0, NoncrediblePool: 12},
			},
		},
		Sites: webgen.SiteConfig{
			Seed: 11, SitesPerClass: 3, PagesPerSite: 10, AttrsPerPage: 8,
			ValueErrorRate: 0.1, NoiseNodes: 4, JitterProb: 0.25, GeneralizeProb: 0.2,
		},
		Corpus: webgen.TextConfig{
			Seed: 12, DocsPerClass: 8, FactsPerDoc: 10,
			ValueErrorRate: 0.12, DistractorShare: 0.6, GeneralizeProb: 0.2,
		},
		Granularity: fusion.BySourceExtractor,
	}

	res, err := core.New(core.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Knowledge extraction ==")
	for _, st := range res.Stats() {
		if st.Precision >= 0 {
			fmt.Printf("  %-14s %-38s %5d statements  precision %.3f\n",
				st.Stage, st.Detail, st.Statements, st.Precision)
		} else {
			fmt.Printf("  %-14s %-38s %5d statements\n", st.Stage, st.Detail, st.Statements)
		}
	}

	fmt.Println("\n== Seed sets (existing KBs + query stream) ==")
	for _, class := range res.World.Ontology.ClassNames() {
		fmt.Printf("  %-12s %3d seed attributes\n", class, res.SeedSets[class].Len())
	}

	fmt.Println("\n== Open-Web discoveries ==")
	for _, class := range res.World.Ontology.ClassNames() {
		dom := res.DOMX.PerClass[class]
		txt := res.TextX.PerClass[class]
		fmt.Printf("  %-12s DOM: %2d new attrs   text: %2d new attrs\n",
			class, dom.Discovered.Len(), txt.Discovered.Len())
	}

	fmt.Println("\n== Knowledge fusion ==")
	fmt.Printf("  method: %s\n", res.Fused().Method)
	fmt.Printf("  %s\n", res.FusionMetrics)
	fmt.Printf("  augmented KB: %d triples\n", res.Fused().NumTruths())

	// Show a handful of fused facts about one entity.
	entity := res.World.EntityNames("Film")[0]
	fmt.Printf("\n== Sample: fused knowledge about %q ==\n", entity)
	facts := store.New(store.ResultFacts(res)).Select(store.Pattern{Entity: entity})
	for i := 0; i < 8; i++ {
		if !facts.Next() {
			return
		}
		f := facts.Fact()
		fmt.Printf("  %-28s = %s\n", f.Attr, f.Value)
	}
	if more := facts.Count(); more > 0 {
		fmt.Printf("  ... and %d more\n", more)
	}
}
