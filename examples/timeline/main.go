// Timeline demonstrates temporal knowledge extraction and fusion: the
// corpus states time-scoped facts ("X was the head of state of Y from 1996
// to 2003"), the extractor parses them with entity linking, and timeline
// fusion resolves conflicting spans by year-level voting.
package main

import (
	"fmt"

	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/temporalx"
	"akb/internal/webgen"
)

func main() {
	w := kb.NewWorld(kb.WorldConfig{Seed: 41, EntitiesPerClass: 15, AttrsPerEntity: 12})
	docs := webgen.GenerateCorpus(w, webgen.TextConfig{
		Seed: 42, DocsPerClass: 15, FactsPerDoc: 2,
		ValueErrorRate: 0.15, DistractorShare: 0.4, TemporalFacts: 8,
	})
	idx := extract.NewEntityIndexFromWorld(w)

	stmts := temporalx.ExtractText(docs, idx)
	fmt.Printf("extracted %d time-scoped statements from %d documents\n", len(stmts), len(docs))
	for i, s := range stmts {
		if i == 4 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %s\n", s)
	}

	timelines := temporalx.FuseTimelines(stmts)
	correct, total := temporalx.Accuracy(w, timelines)
	fmt.Printf("\nfused %d timelines; year-level accuracy %.3f (%d/%d years)\n",
		len(timelines), float64(correct)/float64(total), correct, total)

	// Show one fused timeline next to the ground truth.
	for _, tl := range timelines {
		e, _ := w.Entity(tl.Entity)
		truth := e.Timeline(tl.Attr)
		if len(tl.Spans) < 2 || len(truth) < 2 {
			continue
		}
		fmt.Printf("\n%s / %s\n", tl.Entity, tl.Attr)
		fmt.Println("  fused:")
		for _, sp := range tl.Spans {
			fmt.Printf("    %d-%d  %s\n", sp.From, sp.To, sp.Value)
		}
		fmt.Println("  truth:")
		for _, sp := range truth {
			fmt.Printf("    %d-%d  %s\n", sp.From, sp.To, sp.Value)
		}
		break
	}
}
