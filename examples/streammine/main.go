// Streammine mines attributes from a synthetic Google+AOL query stream at
// Table-3 scale: it generates the combined log, runs the pattern-based
// extractor with filtering rules and a credibility threshold, and prints
// the per-class results plus the best-supported attributes.
package main

import (
	"context"
	"fmt"
	"sort"

	"akb/internal/confidence"
	"akb/internal/eval"
	"akb/internal/extract"
	"akb/internal/extract/qsx"
	"akb/internal/kb"
	"akb/internal/querystream"
)

func main() {
	w := kb.NewWorld(kb.WorldConfig{Seed: 31, EntitiesPerClass: 60, AttrsPerEntity: 20})

	// The paper combines a Google log and an AOL log; generate two streams
	// and combine them the same way.
	cfg := querystream.DefaultGenConfig()
	cfg.Seed = 31
	cfg.TotalRecords = 60000 // 1/488 of the paper's stream, fast to mine
	for i := range cfg.Plans {
		cfg.Plans[i].Relevant /= 5
		cfg.Plans[i].Credible /= 5
	}
	full := querystream.Generate(w, cfg)
	half := full.Len() / 2
	google := &querystream.Stream{Records: full.Records[:half]}
	aol := &querystream.Stream{Records: full.Records[half:]}
	stream := querystream.Combine(google, aol)
	fmt.Printf("combined stream: %d records (%d google-half + %d aol-half)\n\n",
		stream.Len(), google.Len(), aol.Len())

	idx := extract.NewEntityIndexFromWorld(w)
	res := qsx.Extract(context.Background(), stream, idx, confidence.Default())

	rows := make([][]string, 0, 5)
	for _, r := range res.Table3() {
		rows = append(rows, []string{r.Class, fmt.Sprintf("%d", r.RelevantRecords), eval.NA(r.CredibleAttrs)})
	}
	fmt.Println("Query stream extraction results (Table-3 shape):")
	fmt.Print(eval.FormatTable([]string{"Class", "Relevant Query Records", "Credible Attributes"}, rows))

	fmt.Println("\nBest-supported credible attributes per class:")
	for _, class := range res.Classes() {
		cr := res.PerClass[class]
		type attrSupport struct {
			name    string
			support int
		}
		var top []attrSupport
		for attr := range cr.Credible {
			top = append(top, attrSupport{attr, cr.Support[attr]})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].support != top[j].support {
				return top[i].support > top[j].support
			}
			return top[i].name < top[j].name
		})
		fmt.Printf("  %-12s", class)
		if len(top) == 0 {
			fmt.Println("(none pass the credibility threshold)")
			continue
		}
		for i, a := range top {
			if i == 3 {
				break
			}
			fmt.Printf(" %s(x%d)", a.name, a.support)
		}
		fmt.Printf("   [filtered %d meaningless mentions]\n", cr.Filtered)
	}
}
