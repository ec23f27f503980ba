package experiments

import (
	"time"

	"akb/internal/fusion"
)

// ScaleRow is one world-size point of the scalability experiment (E14).
type ScaleRow struct {
	// Entities is the per-class entity count.
	Entities int
	// Statements is the pre-fusion claim volume.
	Statements int
	// Items is the number of fused data items.
	Items int
	// ExtractMS and FuseMS are wall-clock milliseconds for the extraction
	// and fusion phases.
	ExtractMS int64
	FuseMS    int64
	// ThroughputKCps is fused claims per second, in thousands.
	ThroughputKCps float64
}

// Scalability grows the world and measures extraction and fusion cost. The
// paper names scalability as the first challenge of KB construction and
// adopts a MapReduce dataflow for fusion; the expected shape is near-linear
// growth of both phases with claim volume (the per-item fusion work is
// constant and the map-reduce executor parallelises it).
func Scalability(seed int64) []ScaleRow {
	var rows []ScaleRow
	for _, n := range []int{20, 40, 80, 160} {
		cfg := seededConfig(seed)
		cfg.World.EntitiesPerClass = n
		// Web volume grows with the world.
		cfg.Sites.PagesPerSite = n / 2
		cfg.Corpus.DocsPerClass = n / 4

		// Extraction phase (everything up to fusion) is measured by running
		// with the cheapest possible fusion...
		cfg.Method = &fusion.Vote{}
		t0 := time.Now()
		res := runPipeline(cfg)
		extractAndVote := time.Since(t0)

		// ...then fusion cost is measured standalone on the same claims.
		claims := fusion.BuildClaims(res.Statements, fusion.BySourceExtractor)
		full := &fusion.Full{Forest: res.World.Hier}
		t1 := time.Now()
		full.Fuse(claims)
		fuse := time.Since(t1)

		row := ScaleRow{
			Entities:   n,
			Statements: len(res.Statements),
			Items:      len(claims.Items),
			ExtractMS:  extractAndVote.Milliseconds(),
			FuseMS:     fuse.Milliseconds(),
		}
		if fuse > 0 {
			row.ThroughputKCps = float64(claims.NumClaims()) / fuse.Seconds() / 1000
		}
		rows = append(rows, row)
	}
	return rows
}
