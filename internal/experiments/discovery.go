package experiments

import (
	"fmt"

	"akb/internal/core"
	"akb/internal/extract"
	"akb/internal/webgen"
)

// DiscoveryRow is one coverage point of the entity-discovery experiment
// (E9): how well the pipeline creates new entities as KB coverage shrinks.
type DiscoveryRow struct {
	// Coverage is the Freebase entity coverage fraction.
	Coverage float64
	// UncoveredOnWeb counts world entities absent from the entity index but
	// present on at least one generated web page.
	UncoveredOnWeb int
	// Discovered is the number of entities created.
	Discovered int
	// Linked is the number of candidate mentions resolved to known
	// entities instead.
	Linked int
	// Precision is the fraction of discovered entities that are genuine
	// world entities of the right class.
	Precision float64
	// Recall is the fraction of uncovered on-Web entities that were
	// discovered.
	Recall float64
}

// EntityDiscovery sweeps Freebase coverage and measures the joint
// entity-linking-and-discovery extension (paper §3.1: "create new entities
// automatically ... solve entity-linking and entity-discovery jointly").
func EntityDiscovery(seed int64) []DiscoveryRow {
	var rows []DiscoveryRow
	for _, coverage := range []float64{0.9, 0.7, 0.5, 0.3} {
		cfg := seededConfig(seed)
		cfg.Freebase.Coverage = coverage
		cfg.DiscoverEntities = true
		res := runPipeline(cfg)

		// Ground truth: entities on the Web but outside the index.
		idxNames := map[string]bool{}
		fb := coveredEntitySet(cfg)
		for n := range fb {
			idxNames[n] = true
		}
		sites := webgen.GenerateSites(res.World, cfg.Sites)
		uncovered := map[string]bool{}
		for _, s := range sites {
			for _, p := range s.Pages {
				if !idxNames[p.Entity] {
					uncovered[p.Entity] = true
				}
			}
		}

		row := DiscoveryRow{
			Coverage:       coverage,
			UncoveredOnWeb: len(uncovered),
			Discovered:     len(res.Discovered.Entities),
			Linked:         len(res.Discovered.Linked),
		}
		genuine, recalled := 0, 0
		for _, e := range res.Discovered.Entities {
			if we, ok := res.World.Entity(e.Name); ok && we.Class == e.Class {
				genuine++
				if uncovered[e.Name] {
					recalled++
				}
			}
		}
		if row.Discovered > 0 {
			row.Precision = float64(genuine) / float64(row.Discovered)
		}
		if len(uncovered) > 0 {
			row.Recall = float64(recalled) / float64(len(uncovered))
		}
		rows = append(rows, row)
	}
	return rows
}

// coveredEntitySet reproduces the entity index contents for a config (the
// pipeline builds it from Freebase's covered entities).
func coveredEntitySet(cfg core.Config) map[string]string {
	res := map[string]string{}
	// Regenerate world and Freebase deterministically, as the pipeline does.
	w := reworld(cfg)
	fb := refreebase(cfg, w)
	idx := extract.NewEntityIndex(fb)
	for _, n := range idx.Names() {
		c, _ := idx.Class(n)
		res[n] = c
	}
	return res
}

// String renders the row compactly for logs.
func (r DiscoveryRow) String() string {
	return fmt.Sprintf("coverage=%.1f uncovered=%d discovered=%d linked=%d P=%.3f R=%.3f",
		r.Coverage, r.UncoveredOnWeb, r.Discovered, r.Linked, r.Precision, r.Recall)
}
