package experiments

import (
	"akb/internal/eval"
	"akb/internal/fusion"
)

// GranularityRow is one (granularity, method) outcome of the provenance
// experiment (E13).
type GranularityRow struct {
	Granularity string
	Method      string
	P, R, F1    float64
}

// Granularity compares fusion quality across provenance granularities. The
// paper criticises relation-based fusion for "referring to the extractors
// as data sources, only considering the correlations among extractors and
// ignoring the correlations among original data sources"; Dong et al. found
// finer-granularity provenance beneficial. The expected shape: ByExtractor
// (four mega-sources) loses to the per-source granularities because a
// source-quality model with four sources cannot separate good sites from
// bad ones.
func Granularity(seed int64) []GranularityRow {
	cfg := seededConfig(seed)
	// Heterogeneous site quality: some sites are 2.5x noisier than the
	// base rate, others 5x cleaner. Extractor-level provenance averages
	// them away; source-level provenance lets fusion discount bad sites.
	cfg.Sites.HeterogeneousSites = true
	cfg.Sites.ValueErrorRate = 0.3
	cfg.Sites.SitesPerClass = 8
	res := runPipeline(cfg)
	scorer := &eval.Scorer{World: res.World}

	grans := []struct {
		name string
		g    fusion.Granularity
	}{
		{"by-extractor", fusion.ByExtractor},
		{"by-source", fusion.BySource},
		{"by-source+extractor", fusion.BySourceExtractor},
	}
	methods := []fusion.Method{
		&fusion.Accu{Weighted: true},
		&fusion.MultiTruth{Weighted: true},
	}
	var rows []GranularityRow
	for _, gr := range grans {
		for _, ms := range scorer.CompareFusionMethods(res.Statements, methods, gr.g) {
			rows = append(rows, GranularityRow{
				Granularity: gr.name,
				Method:      ms.Method,
				P:           ms.Metrics.Precision(),
				R:           ms.Metrics.Recall(),
				F1:          ms.Metrics.F1(),
			})
		}
	}
	return rows
}
