package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"akb/internal/confidence"
	"akb/internal/core"
	"akb/internal/eval"
	"akb/internal/extract"
	"akb/internal/extract/domx"
	"akb/internal/kb"
	"akb/internal/rdf"
	"akb/internal/webgen"
)

// seededConfig is the default pipeline configuration reseeded the way the
// CLI's -seed reseeds it: core.WithSeed, which also reseeds the world the
// substrates are generated from.
func seededConfig(seed int64) core.Config {
	return core.New(core.WithSeed(seed)).Config()
}

// runPipeline runs the pipeline of an experiment. Experiments inject no
// faults and never cancel, so no stage can fail: an error is a bug.
func runPipeline(cfg core.Config) *core.Result {
	res, err := core.New(core.WithConfig(cfg)).Run(context.Background())
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// reworld regenerates the world for a pipeline config, as the pipeline does.
func reworld(cfg core.Config) *kb.World { return kb.NewWorld(cfg.World) }

// refreebase regenerates the synthetic Freebase for a pipeline config.
func refreebase(cfg core.Config, w *kb.World) *kb.SourceKB {
	return kb.GenerateFreebase(w, cfg.Freebase)
}

// runDOMPoint measures Algorithm 1 at one configuration point.
func runDOMPoint(seed int64, sitesPerClass, seedAttrs int, threshold float64) DOMSweepRow {
	w := kb.NewWorld(kb.WorldConfig{Seed: seed, EntitiesPerClass: 25, AttrsPerEntity: 14})
	gen := webgen.GenerateSites(w, webgen.SiteConfig{
		Seed: seed + 1, SitesPerClass: sitesPerClass, PagesPerSite: 10, AttrsPerPage: 8,
		ValueErrorRate: 0.1, NoiseNodes: 5, JitterProb: 0.3,
	})
	idx := extract.NewEntityIndexFromWorld(w)
	seeds := make(map[string]extract.AttrSet)
	for _, cls := range w.Ontology.ClassNames() {
		s := extract.NewAttrSet()
		attrs := w.Ontology.Class(cls).AttributeNames()
		for i := 0; i < seedAttrs && i < len(attrs); i++ {
			s.Add(attrs[i], "seed")
		}
		seeds[cls] = s
	}
	res := domx.Extract(context.Background(), domx.FromWebgen(gen), idx, seeds,
		domx.Config{SimilarityThreshold: threshold, MaxPasses: 3}, confidence.Default())

	discovered, genuine := 0, 0
	for _, cls := range w.Ontology.ClassNames() {
		cr := res.PerClass[cls]
		if cr == nil {
			continue
		}
		class := w.Ontology.Class(cls)
		for attr := range cr.Discovered {
			discovered++
			if _, ok := class.Attribute(attr); ok {
				genuine++
			}
		}
	}
	prec := 1.0
	if discovered > 0 {
		prec = float64(genuine) / float64(discovered)
	}
	scorer := &eval.Scorer{World: w}
	sp := scorer.ScoreStatements(res.AppendStatements(nil)).Precision()
	return DOMSweepRow{Discovered: discovered, Precision: prec, StmtPrecision: sp}
}

// HierarchicalStatements filters the pipeline's statements down to claims
// about hierarchical-value attributes (place-valued), the items where
// hierarchy-aware fusion applies.
func HierarchicalStatements(res *core.Result) []rdf.Statement {
	var out []rdf.Statement
	for _, s := range res.Statements {
		entity := extract.AttrFromIRI(s.Subject)
		e, ok := res.World.Entity(entity)
		if !ok {
			continue
		}
		cls := res.World.Ontology.Class(e.Class)
		if cls == nil {
			continue
		}
		a, ok := cls.Attribute(extract.AttrFromIRI(s.Predicate))
		if ok && a.Hierarchical {
			out = append(out, s)
		}
	}
	return out
}

// InjectCopiers returns the pipeline's statements plus nCopies exact
// replicas of the statements of each class's noisiest DOM source,
// published under fresh copier source names. This builds the copy-
// correlation stress workload of E6/E7: an unweighted fuser sees the
// copied (partly wrong) claims as a large corroborating majority.
func InjectCopiers(res *core.Result, nCopies int) []rdf.Statement {
	// Group DOM statements by source.
	bySource := map[string][]rdf.Statement{}
	for _, s := range res.Statements {
		if s.Provenance.Extractor == extract.ExtractorDOM {
			bySource[s.Provenance.Source] = append(bySource[s.Provenance.Source], s)
		}
	}
	if len(bySource) == 0 {
		return res.Statements
	}
	// Pick one source per class prefix (hosts look like "film-0.example.com").
	chosen := map[string]string{}
	var hosts []string
	for h := range bySource {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		prefix := strings.SplitN(h, "-", 2)[0]
		if _, ok := chosen[prefix]; !ok {
			chosen[prefix] = h
		}
	}
	out := make([]rdf.Statement, 0, len(res.Statements)+nCopies*len(chosen)*64)
	out = append(out, res.Statements...)
	prefixes := make([]string, 0, len(chosen))
	for p := range chosen {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	for _, prefix := range prefixes {
		orig := chosen[prefix]
		for c := 0; c < nCopies; c++ {
			copier := fmt.Sprintf("mirror%d.%s", c, orig)
			for _, s := range bySource[orig] {
				dup := s
				dup.Provenance.Source = copier
				out = append(out, dup)
			}
		}
	}
	return out
}
