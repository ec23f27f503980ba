// Package experiments implements the reproduction of every table and figure
// in the paper, plus the design-choice ablations DESIGN.md calls out. Each
// experiment is a pure function from a configuration to structured rows;
// cmd/akb renders them as tables and the repository-root benchmarks measure
// them. See EXPERIMENTS.md for the paper-vs-measured record.
package experiments

import (
	"context"
	"fmt"

	"akb/internal/confidence"
	"akb/internal/core"
	"akb/internal/eval"
	"akb/internal/extract"
	"akb/internal/extract/kbx"
	"akb/internal/extract/qsx"
	"akb/internal/fusion"
	"akb/internal/kb"
	"akb/internal/querystream"
)

// --- E1: Table 1 — statistics of representative KBs ---------------------

// Table1Row is one row of Table 1 (entities scaled 1000x down).
type Table1Row struct {
	KB         string
	Entities   int
	Attributes int
}

// Table1 materialises the four representative KBs and counts them.
func Table1(seed int64) []Table1Row {
	kbs := kb.GenerateStatsKBs(seed)
	rows := make([]Table1Row, 0, len(kbs))
	for _, s := range kbs {
		p := s.Profile()
		rows = append(rows, Table1Row{KB: p.Name, Entities: p.Entities, Attributes: p.Attributes})
	}
	return rows
}

// --- E2: Table 2 — attribute extraction from existing KBs ---------------

// Table2 generates the synthetic DBpedia and Freebase and runs the
// existing-KB attribute extractor over them.
func Table2(seed int64) []kbx.Table2Row {
	w := kb.NewWorld(kb.WorldConfig{Seed: seed, EntitiesPerClass: 20, AttrsPerEntity: 16})
	dbp := kb.GenerateDBpedia(w, kb.KBGenConfig{Seed: seed + 1, Coverage: 0.6})
	fb := kb.GenerateFreebase(w, kb.KBGenConfig{Seed: seed + 2, Coverage: 0.8})
	res := kbx.ExtractAttributes(context.Background(), confidence.Default(), dbp, fb)
	return res.Table2()
}

// --- E3: Table 3 — attribute extraction from the query stream -----------

// Table3Config controls the query-stream experiment scale.
type Table3Config struct {
	Seed int64
	// Scale divides the paper's record counts; 100 gives the default
	// 292,839-record stream (the paper used 29,283,918 records).
	Scale int
}

// Table3 generates the scaled Google+AOL stream and runs query-stream
// extraction.
func Table3(cfg Table3Config) []qsx.Table3Row {
	if cfg.Scale <= 0 {
		cfg.Scale = 100
	}
	w := kb.NewWorld(kb.WorldConfig{Seed: cfg.Seed, EntitiesPerClass: 60, AttrsPerEntity: 20})
	plans := querystream.DefaultPlans()
	total := 29283918 / cfg.Scale
	for i := range plans {
		plans[i].Relevant = plans[i].Relevant * 100 / cfg.Scale
		if cfg.Scale > 100 {
			// With fewer records the support budget shrinks, so the number
			// of attributes that can clear the credibility threshold
			// shrinks proportionally (attribute interest saturates in the
			// other direction, so scales below 100 keep the paper's
			// credible counts).
			plans[i].Credible = plans[i].Credible * 100 / cfg.Scale
			if plans[i].Credible == 0 && plans[i].Relevant > 60 {
				plans[i].Credible = 1
			}
		}
	}
	stream := querystream.Generate(w, querystream.GenConfig{
		Seed: cfg.Seed + 1, TotalRecords: total, Plans: plans,
	})
	idx := extract.NewEntityIndexFromWorld(w)
	res := qsx.Extract(context.Background(), stream, idx, confidence.Default())
	return res.Table3()
}

// --- E4: Figure 1 — the end-to-end pipeline -----------------------------

// PipelineReport is the structured outcome of the Figure-1 experiment.
type PipelineReport struct {
	Stages []core.StageStat
	Growth []core.AttributeGrowth
	Fusion eval.Metrics
	// AugmentedTriples is the size of the final KB.
	AugmentedTriples int
	// TotalStatements is the pre-fusion claim volume.
	TotalStatements int
	// Health reports supervised stage outcomes; Degraded lists the stages
	// that failed soft (empty on a fault-free run).
	Health   core.HealthReport
	Degraded []string
}

// PipelineContext runs the full framework under the resilience supervisor
// and summarises it; it errors when a mandatory stage fails or the context
// is cancelled.
func PipelineContext(ctx context.Context, cfg core.Config) (PipelineReport, error) {
	res, err := core.New(core.WithConfig(cfg)).Run(ctx)
	if err != nil {
		return PipelineReport{}, err
	}
	return Summarize(res), nil
}

// Summarize condenses a pipeline Result into the report the CLI renders.
// Callers that already hold a Result (e.g. because they also snapshot it
// for serving) use this instead of re-running the pipeline.
func Summarize(res *core.Result) PipelineReport {
	return PipelineReport{
		Stages:           res.Stats(),
		Growth:           res.Growth(),
		Fusion:           res.FusionMetrics,
		AugmentedTriples: res.Fused().NumTruths(),
		TotalStatements:  len(res.Statements),
		Health:           res.Health(),
		Degraded:         res.Health().Degraded(),
	}
}

// --- E5: Algorithm 1 behaviour sweeps ------------------------------------

// DOMSweepRow is one configuration point of the Algorithm-1 sweep.
type DOMSweepRow struct {
	// Param names the swept parameter; Value is its setting.
	Param string
	Value string
	// Discovered is the number of newly discovered attributes (beyond
	// seeds) across classes.
	Discovered int
	// Precision is the fraction of discoveries that are genuine ontology
	// attributes.
	Precision float64
	// StmtPrecision is the precision of emitted statements.
	StmtPrecision float64
}

// DOMSweep exercises Algorithm 1 across sites-per-class, seed-set size and
// similarity threshold, reporting discovery volume and precision for each
// point (the paper reports Algorithm 1 qualitatively; this is its
// quantitative behaviour).
func DOMSweep(seed int64) []DOMSweepRow {
	var rows []DOMSweepRow
	for _, sites := range []int{1, 2, 4, 8} {
		r := runDOMPoint(seed, sites, 6, 0.9)
		r.Param, r.Value = "sites/class", fmt.Sprintf("%d", sites)
		rows = append(rows, r)
	}
	for _, seedN := range []int{2, 6, 12, 24} {
		r := runDOMPoint(seed, 4, seedN, 0.9)
		r.Param, r.Value = "seed attrs", fmt.Sprintf("%d", seedN)
		rows = append(rows, r)
	}
	for _, thr := range []float64{0.5, 0.7, 0.9, 0.999} {
		r := runDOMPoint(seed, 4, 6, thr)
		r.Param, r.Value = "similarity", fmt.Sprintf("%.3f", thr)
		rows = append(rows, r)
	}
	return rows
}

// --- E6: fusion method comparison ----------------------------------------

// FusionRow is one method's score on one workload.
type FusionRow struct {
	Workload string
	Method   string
	P, R, F1 float64
}

// FusionComparison compares every fusion method on two workloads: the
// end-to-end pipeline statements, and a stress workload with injected
// copier sources and a multi-truth-heavy world.
func FusionComparison(seed int64) []FusionRow {
	var rows []FusionRow

	// Workload 1: pipeline statements.
	cfg := seededConfig(seed)
	res := runPipeline(cfg)
	scorer := &eval.Scorer{World: res.World}
	methods := append(fusion.AllMethods(res.World.Hier), fusion.FactFinders()...)
	methods = append(methods, &fusion.Adaptive{})
	for _, ms := range scorer.CompareFusionMethods(res.Statements, methods, fusion.BySourceExtractor) {
		rows = append(rows, FusionRow{
			Workload: "pipeline",
			Method:   ms.Method,
			P:        ms.Metrics.Precision(),
			R:        ms.Metrics.Recall(),
			F1:       ms.Metrics.F1(),
		})
	}

	// Workload 2: pipeline plus copier sources replicating the noisiest
	// site of each class.
	stress := InjectCopiers(res, 2)
	for _, ms := range scorer.CompareFusionMethods(stress, methods, fusion.BySourceExtractor) {
		rows = append(rows, FusionRow{
			Workload: "with-copiers",
			Method:   ms.Method,
			P:        ms.Metrics.Precision(),
			R:        ms.Metrics.Recall(),
			F1:       ms.Metrics.F1(),
		})
	}
	return rows
}

// --- E7: ablations of the paper's fusion design choices ------------------

// AblationRow is one ablation outcome.
type AblationRow struct {
	Ablation string
	Variant  string
	P, R, F1 float64
}

// Ablations isolates each design choice of §3.2: hierarchy reasoning on
// hierarchy-heavy claims, correlation discounting under copiers, and
// confidence weighting with a deliberately degraded extractor.
func Ablations(seed int64) []AblationRow {
	var rows []AblationRow
	add := func(abl, variant string, m eval.Metrics) {
		rows = append(rows, AblationRow{Ablation: abl, Variant: variant, P: m.Precision(), R: m.Recall(), F1: m.F1()})
	}

	// Hierarchy ablation: a generalisation-heavy Web, scored on the items
	// with hierarchical value spaces (the mechanism's target; elsewhere the
	// wrapper is a no-op and only adds EM noise).
	cfg := seededConfig(seed)
	cfg.Sites.GeneralizeProb = 0.45
	cfg.Corpus.GeneralizeProb = 0.45
	res := runPipeline(cfg)
	scorer := &eval.Scorer{World: res.World}
	hierStmts := HierarchicalStatements(res)
	flat := &fusion.Vote{Weighted: true}
	hier := &fusion.Hierarchical{Base: &fusion.Vote{Weighted: true}, Forest: res.World.Hier}
	for _, ms := range scorer.CompareFusionMethods(hierStmts, []fusion.Method{flat, hier}, fusion.BySourceExtractor) {
		add("hierarchy", ms.Method, ms.Metrics)
	}

	// Correlation ablation: copier-injected claims.
	stress := InjectCopiers(res, 3)
	claims := fusion.BuildClaims(stress, fusion.BySourceExtractor)
	noCorr := (&fusion.MultiTruth{Weighted: true}).Fuse(claims)
	add("correlation", "off", scorer.ScoreFusion(noCorr))
	corr := fusion.DetectCorrelations(claims, fusion.DefaultCorrelationConfig())
	withCorr := (&fusion.MultiTruth{Weighted: true, Discount: corr}).Fuse(claims)
	add("correlation", "on", scorer.ScoreFusion(withCorr))

	// Confidence ablation: degrade DOM confidence validity by zeroing the
	// criterion (all statements equally trusted) vs honouring scores.
	for _, ms := range scorer.CompareFusionMethods(res.Statements,
		[]fusion.Method{&fusion.MultiTruth{}, &fusion.MultiTruth{Weighted: true}}, fusion.BySourceExtractor) {
		add("confidence", ms.Method, ms.Metrics)
	}

	// Alignment ablation: a Web with synonym labels and value typos, fused
	// with and without the pre-fusion normalisation step.
	acfg := seededConfig(seed)
	acfg.Sites.SynonymProb = 0.3
	acfg.Sites.TypoProb = 0.1
	acfg.Method = &fusion.MultiTruth{Weighted: true}
	off := runPipeline(acfg)
	offScorer := &eval.Scorer{World: off.World}
	add("alignment", "off", offScorer.ScoreFusion(off.Fused()))
	acfg.Align = true
	on := runPipeline(acfg)
	onScorer := &eval.Scorer{World: on.World}
	add("alignment", "on", onScorer.ScoreFusion(on.Fused()))
	return rows
}
