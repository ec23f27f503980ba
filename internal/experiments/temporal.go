package experiments

import (
	"akb/internal/extract"
	"akb/internal/kb"
	"akb/internal/temporalx"
	"akb/internal/webgen"
)

// TemporalRow is one noise point of the temporal-extraction experiment
// (E11): year-level timeline accuracy as corpus noise grows, raw
// (per-statement) vs fused.
type TemporalRow struct {
	// ErrorRate is the corpus value-error rate.
	ErrorRate float64
	// Statements is the number of time-scoped statements extracted.
	Statements int
	// Timelines is the number of fused (entity, attribute) timelines.
	Timelines int
	// RawAccuracy is the year-level accuracy of raw statements.
	RawAccuracy float64
	// FusedAccuracy is the year-level accuracy after timeline fusion.
	FusedAccuracy float64
}

// Temporal sweeps corpus noise and measures temporal extraction and fusion.
// The expected shape: fusion recovers accuracy lost to noise, because
// majority voting per year suppresses the minority wrong spans.
func Temporal(seed int64) []TemporalRow {
	var rows []TemporalRow
	for _, rate := range []float64{0.0, 0.1, 0.2, 0.3} {
		w := kb.NewWorld(kb.WorldConfig{Seed: seed, EntitiesPerClass: 30, AttrsPerEntity: 14})
		docs := webgen.GenerateCorpus(w, webgen.TextConfig{
			Seed: seed + 1, DocsPerClass: 20, FactsPerDoc: 3,
			ValueErrorRate: rate, DistractorShare: 0.4, TemporalFacts: 8,
		})
		idx := extract.NewEntityIndexFromWorld(w)
		stmts := temporalx.ExtractText(docs, idx)
		tls := temporalx.FuseTimelines(stmts)

		rawCorrect, rawTotal := 0, 0
		for _, s := range stmts {
			e, ok := w.Entity(s.Entity)
			if !ok {
				continue
			}
			for y := s.From; y <= s.To; y++ {
				rawTotal++
				if e.ValueAt(s.Attr, y) == s.Value {
					rawCorrect++
				}
			}
		}
		fc, ft := temporalx.Accuracy(w, tls)
		row := TemporalRow{ErrorRate: rate, Statements: len(stmts), Timelines: len(tls)}
		if rawTotal > 0 {
			row.RawAccuracy = float64(rawCorrect) / float64(rawTotal)
		}
		if ft > 0 {
			row.FusedAccuracy = float64(fc) / float64(ft)
		}
		rows = append(rows, row)
	}
	return rows
}
