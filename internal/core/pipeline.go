// Package core implements the paper's Figure-1 framework end to end: the
// knowledge-extraction phase (query stream + existing KBs seed the DOM-tree
// and Web-text extractors; all four emit confidence-scored RDF statements)
// followed by the knowledge-fusion phase (conflict resolution with
// hierarchical value spaces, source/extractor correlations and confidence
// weighting), finishing with KB augmentation — attaching the fused triples
// to the Freebase stand-in.
//
// The pipeline runs as named stages under an internal/resilience
// supervisor: optional stages (query-stream, DOM, list, text, temporal
// extraction, entity discovery, alignment) fail soft and leave the run
// degraded but complete, while mandatory stages (the substrate
// generators, KB extraction, fusion, augmentation) fail hard with a
// wrapped *StageError. New(...).Run(ctx) is the entry point: it carries
// cancellation, per-stage deadlines, retries and deterministic fault
// injection.
//
// Stages execute on the internal/sched dependency-DAG scheduler. The
// dependency structure is a shallow DAG — the five substrate generators
// are mutually independent after the world exists, KB and query-stream
// extraction are independent, and the seeded extractors only join again
// at the statement union — so Config.Parallelism > 1 runs independent
// stages concurrently. Stage stats, health entries and every Result
// field are assembled in the fixed topological order, making output
// byte-identical at any parallelism.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"akb/internal/align"
	"akb/internal/confidence"
	"akb/internal/entitydisc"
	"akb/internal/eval"
	"akb/internal/extract"
	"akb/internal/extract/domx"
	"akb/internal/extract/kbx"
	"akb/internal/extract/qsx"
	"akb/internal/extract/textx"
	"akb/internal/fusion"
	"akb/internal/kb"
	"akb/internal/obs"
	"akb/internal/querystream"
	"akb/internal/rdf"
	"akb/internal/resilience"
	"akb/internal/sched"
	"akb/internal/temporalx"
	"akb/internal/webgen"
)

// Supervised stage names, usable as resilience.FaultPlan keys. The
// substrates are the world generator plus five mutually independent
// generators, so they can run concurrently.
const (
	StageWorld    = "substrates/world"
	StageDBpedia  = "substrates/dbpedia"
	StageFreebase = "substrates/freebase"
	StageStream   = "substrates/stream"
	StageSites    = "substrates/sites"
	StageCorpus   = "substrates/corpus"
	StageSeeds    = "seeds"
	StageUnion    = "union"
	StageKBX      = "extract/kbx"
	StageQSX      = "extract/qsx"
	StageDOMX     = "extract/domx"
	StageLists    = "extract/lists"
	StageTextX    = "extract/textx"
	StageTemporal = "extract/temporal"
	StageDiscover = "discover"
	StageAlign    = "align"
	StageFusion   = "fusion"
	StageAugment  = "augment"
)

// MandatoryStageNames lists the stages that fail the whole run: without
// substrates, KB statements, fusion or augmentation there is no result.
func MandatoryStageNames() []string {
	return []string{
		StageWorld, StageDBpedia, StageFreebase, StageStream, StageSites, StageCorpus,
		StageKBX, StageSeeds, StageUnion, StageFusion, StageAugment,
	}
}

// OptionalStageNames lists the stages that fail soft: the pipeline
// degrades gracefully and fuses whatever the surviving extractors
// produced. Includes stages that only run under their config switches.
func OptionalStageNames() []string {
	return []string{StageQSX, StageDOMX, StageLists, StageTextX, StageTemporal, StageDiscover, StageAlign}
}

// Config parameterises a full pipeline run. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Seed seeds the supervisor's retry-backoff jitter and nothing else. The
	// substrates carry their own seeds (World.Seed, DBpedia.Seed,
	// Freebase.Seed, Stream.Seed, Sites.Seed, Corpus.Seed); reseeding a run
	// means WithSeed, which sets this and World.Seed.
	Seed int64
	// World configures the ground-truth world.
	World kb.WorldConfig
	// DBpedia and Freebase configure the source KBs.
	DBpedia  kb.KBGenConfig
	Freebase kb.KBGenConfig
	// Stream configures query-stream generation; TotalRecords 0 keeps the
	// stream proportional to the world instead of the full Table-3 scale.
	Stream querystream.GenConfig
	// Sites and Corpus configure the synthetic Web.
	Sites  webgen.SiteConfig
	Corpus webgen.TextConfig
	// DOM and Text configure the DOM-tree and Web-text extractors. The
	// query-stream extractor takes no configuration: an attribute is
	// credible at querystream.CredibleThreshold mentions.
	DOM  domx.Config
	Text textx.Config
	// Granularity selects the fusion source granularity.
	Granularity fusion.Granularity
	// Method is the fusion method; nil uses the paper's FULL composition.
	Method fusion.Method
	// Align enables the pre-fusion normalisation step (synonym merging,
	// misspelling correction, sub-attribute identification).
	Align bool
	// DiscoverEntities enables the joint entity-linking-and-discovery
	// extension: the DOM and text extractors harvest facts about entities
	// the KBs do not cover, entitydisc clusters and links them, and the
	// created entities' statements join the fusion input.
	DiscoverEntities bool
	// ListPages enables multi-record list-page generation and extraction
	// (the record-mining setting of Liu et al. / Bing et al.).
	ListPages bool
	// Temporal enables temporal knowledge extraction: the corpus renders
	// time-scoped sentences about temporal attributes and temporalx fuses
	// the extracted spans into timelines.
	Temporal bool

	// Parallelism bounds how many pipeline stages execute concurrently on
	// the dependency-DAG scheduler; <= 1 runs the stages strictly serially
	// in the order stages() lists them. When > 1 it also fans into the DOM
	// and text extractors' internal worker pools (DOM.Workers /
	// Text.Workers) unless those are set explicitly. Results are
	// byte-identical at any value.
	Parallelism int

	// Faults optionally injects deterministic failures and latency through
	// the resilience harness; nil runs fault-free. Keys are the Stage*
	// constants.
	Faults *resilience.FaultPlan
	// Retry overrides the backoff policy for retryable stages; the zero
	// value uses resilience.DefaultRetry().
	Retry resilience.RetryPolicy
	// StageTimeout bounds each supervised stage attempt; 0 disables
	// per-stage deadlines.
	StageTimeout time.Duration
	// StageHook, when set, observes every supervised stage start. Used for
	// logging and by tests to cancel mid-pipeline. With Parallelism > 1
	// hooks fire from concurrent stage goroutines and must be safe for
	// concurrent use.
	StageHook func(stage string)
}

// DefaultConfig returns a moderate-scale configuration that runs in a few
// seconds.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		World:    kb.WorldConfig{Seed: 1, EntitiesPerClass: 40, AttrsPerEntity: 18},
		DBpedia:  kb.KBGenConfig{Seed: 2, Coverage: 0.6, ErrorRate: 0.02},
		Freebase: kb.KBGenConfig{Seed: 3, Coverage: 0.8, ErrorRate: 0.02},
		Stream: querystream.GenConfig{
			Seed: 4, TotalRecords: 30000,
			Plans: []querystream.ClassPlan{
				{Class: "Book", Relevant: 800, Credible: 20, NoncrediblePool: 15},
				{Class: "Film", Relevant: 1200, Credible: 15, NoncrediblePool: 20},
				{Class: "Country", Relevant: 1100, Credible: 30, NoncrediblePool: 25},
				{Class: "University", Relevant: 120, Credible: 8, NoncrediblePool: 10},
				{Class: "Hotel", Relevant: 60, Credible: 0, NoncrediblePool: 25},
			},
		},
		Sites: webgen.SiteConfig{
			Seed: 5, SitesPerClass: 4, PagesPerSite: 14, AttrsPerPage: 10,
			ValueErrorRate: 0.12, NoiseNodes: 5, JitterProb: 0.25, GeneralizeProb: 0.25,
		},
		Corpus: webgen.TextConfig{
			Seed: 6, DocsPerClass: 12, FactsPerDoc: 12,
			ValueErrorRate: 0.15, DistractorShare: 0.7, GeneralizeProb: 0.25,
		},
		DOM:         domx.DefaultConfig(),
		Granularity: fusion.BySourceExtractor,
	}
}

// StageStat summarises one pipeline stage for reporting.
type StageStat struct {
	Stage      string
	Detail     string
	Statements int
	// Precision is the stage's statement precision against ground truth
	// (-1 when not applicable).
	Precision float64
	// Health is the supervised outcome (OK, or Degraded when the stage
	// failed soft and the pipeline continued without it).
	Health resilience.Health
	// Err is the failure message for degraded stages, "" otherwise.
	Err string
	// Attempts is how many supervised attempts the stage consumed.
	Attempts int
}

// Result is the full pipeline output.
type Result struct {
	World *kb.World
	// SeedSets per class: combined KB + query-stream attributes, the input
	// to the open-Web extractors.
	SeedSets map[string]extract.AttrSet
	KBX      *kbx.Result
	QSX      *qsx.Result
	DOMX     *domx.Result
	TextX    *textx.Result
	// Statements is the union of all extractors' output: the run's one
	// statement list, each statement made once, by the union stage.
	Statements []rdf.Statement
	// fused is the knowledge-fusion outcome; read it through Fused().
	fused *fusion.Result
	// FusionMetrics scores the fused knowledge against ground truth.
	FusionMetrics eval.Metrics
	// stages holds per-stage statistics in execution order; read them
	// through Stats().
	stages []StageStat
	// health records every supervised stage's outcome; read it through
	// Health().
	health HealthReport
	// AlignReport summarises pre-fusion normalisation when Config.Align is
	// set; nil otherwise.
	AlignReport *align.Report
	// Discovered holds new-entity discovery output when
	// Config.DiscoverEntities is set; nil otherwise.
	Discovered *entitydisc.Result
	// Lists holds list-page extraction output when Config.ListPages is
	// set; nil otherwise.
	Lists *domx.ListResult
	// Timelines holds fused temporal knowledge when Config.Temporal is
	// set; nil otherwise.
	Timelines []temporalx.Timeline
}

// Fused returns the knowledge-fusion outcome: the accepted truths and
// per-value beliefs for every data item. It is the read surface the
// serving layer (internal/store) snapshots.
func (r *Result) Fused() *fusion.Result { return r.fused }

// Health returns the supervised outcome of every stage, including stages
// that emit no statement statistics; degraded optional stages appear with
// their error and attempt count.
func (r *Result) Health() HealthReport { return r.health }

// Stats returns per-stage statistics in execution order.
func (r *Result) Stats() []StageStat { return r.stages }

// runPipeline is the engine behind Pipeline.Run. It returns a nil Result and a wrapped *resilience.StageError
// when a mandatory stage fails or the context is cancelled;
// optional-stage failures degrade the run (recorded in Result.Health()
// and the stage's StageStat) but do not error.
func runPipeline(ctx context.Context, cfg Config) (*Result, error) {
	p := newPipelineRun(cfg)
	return p.run(ctx, p.stages())
}

// newPipelineRun resolves the run-time defaults of cfg and sets up the
// intermediates its stages share.
func newPipelineRun(cfg Config) *pipelineRun {
	if cfg.Temporal && cfg.Corpus.TemporalFacts == 0 {
		cfg.Corpus.TemporalFacts = 6
	}
	if cfg.Parallelism > 1 {
		if cfg.DOM.Workers == 0 {
			cfg.DOM.Workers = cfg.Parallelism
		}
		if cfg.Text.Workers == 0 {
			cfg.Text.Workers = cfg.Parallelism
		}
	}
	return &pipelineRun{
		cfg:   cfg,
		crit:  confidence.Default(),
		res:   &Result{SeedSets: make(map[string]extract.AttrSet)},
		stats: make(map[string]*StageStat),
		sup: &resilience.Supervisor{
			Seed:    cfg.Seed,
			Faults:  cfg.Faults,
			OnStage: cfg.StageHook,
		},
	}
}

// run executes the stages on the scheduler and assembles the Result.
func (p *pipelineRun) run(ctx context.Context, stages []sched.Stage) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out, err := sched.Run(ctx, sched.Options{Parallelism: p.cfg.Parallelism, Supervisor: p.sup}, stages)
	if err != nil {
		return nil, err
	}
	p.assemble(stages, out)
	return p.res, nil
}

const (
	mandatory = false
	optional  = true
)

// pipelineRun carries the intermediates threaded between stages. Each
// intermediate is written by exactly one stage and read only by stages
// downstream of it in the DAG, so no lock guards them; the stats map is
// the one structure concurrent stages share.
type pipelineRun struct {
	cfg    Config
	crit   *confidence.Criterion
	res    *Result
	sup    *resilience.Supervisor
	scorer *eval.Scorer

	// stats holds per-stage statistics keyed by scheduler stage name;
	// assemble flattens it into Result.Stages in topological order.
	mu    sync.Mutex
	stats map[string]*StageStat

	dbp, fb  *kb.SourceKB
	qsStream *querystream.Stream
	sites    []*webgen.Site
	corpus   []*webgen.Document
	entIdx   *extract.EntityIndex
	kbStmts  *kbx.Statements
}

// stages builds the pipeline DAG. The list order is a valid topological
// order, and it is the order the serial scheduler path (Parallelism <= 1)
// executes and every path reports the stages in. Conditional stages join
// the graph — and their dependents' edge lists — only when their config
// switch is on.
func (p *pipelineRun) stages() []sched.Stage {
	retry := p.cfg.Retry
	if retry == (resilience.RetryPolicy{}) {
		retry = resilience.DefaultRetry()
	}
	st := func(name string, soft bool, after []string, body func(context.Context) error) sched.Stage {
		return sched.Stage{
			Name: name, After: after, Optional: soft,
			Retry: retry, Timeout: p.cfg.StageTimeout, Run: body,
		}
	}
	stages := []sched.Stage{
		// --- Substrates: the world, then five independent generators ----
		st(StageWorld, mandatory, nil, p.genWorld),
		st(StageDBpedia, mandatory, []string{StageWorld}, p.genDBpedia),
		st(StageFreebase, mandatory, []string{StageWorld}, p.genFreebase),
		st(StageStream, mandatory, []string{StageWorld}, p.genStream),
		st(StageSites, mandatory, []string{StageWorld}, p.genSites),
		st(StageCorpus, mandatory, []string{StageWorld}, p.genCorpus),
		// --- Knowledge extraction phase ---------------------------------
		st(StageKBX, mandatory, []string{StageDBpedia, StageFreebase}, p.extractKB),
		st(StageQSX, optional, []string{StageStream, StageFreebase}, p.extractQS),
		st(StageSeeds, mandatory, []string{StageKBX, StageQSX}, p.buildSeeds),
		st(StageDOMX, optional, []string{StageSeeds, StageSites}, p.extractDOM),
	}
	unionAfter := []string{StageKBX, StageDOMX, StageTextX}
	if p.cfg.ListPages {
		stages = append(stages, st(StageLists, optional, []string{StageFreebase}, p.extractLists))
		unionAfter = append(unionAfter, StageLists)
	}
	stages = append(stages, st(StageTextX, optional, []string{StageSeeds, StageCorpus}, p.extractText))
	if p.cfg.DiscoverEntities {
		// Discovery reads the facts domx and textx harvested, and its
		// statements are one more part of the union.
		stages = append(stages, st(StageDiscover, optional, []string{StageDOMX, StageTextX}, p.discoverEntities))
		unionAfter = append(unionAfter, StageDiscover)
	}
	stages = append(stages, st(StageUnion, mandatory, unionAfter, p.unionStatements))
	fusionAfter := []string{StageUnion}
	if p.cfg.Temporal {
		stages = append(stages, st(StageTemporal, optional, []string{StageCorpus, StageFreebase}, p.extractTemporal))
	}
	// --- Knowledge fusion phase and KB augmentation ---------------------
	if p.cfg.Align {
		stages = append(stages, st(StageAlign, optional, fusionAfter, p.alignStatements))
		fusionAfter = append(fusionAfter, StageAlign)
	}
	stages = append(stages,
		st(StageFusion, mandatory, fusionAfter, p.fuse),
		st(StageAugment, mandatory, []string{StageFusion}, p.augment),
	)
	return stages
}

// assemble converts the scheduler outcome into Result.Health and
// Result.Stages, both in the fixed topological order. OK stages surface
// the stat their body recorded (annotated with health and attempts);
// degraded stages surface a synthesized degraded stat, exactly as the
// serial pipeline reported them.
func (p *pipelineRun) assemble(stages []sched.Stage, out *sched.Result) {
	soft := make(map[string]bool, len(stages))
	for _, st := range stages {
		soft[st.Name] = st.Optional
	}
	for i, name := range out.Order {
		rep := out.Reports[i]
		sh := StageHealth{Stage: name, Health: rep.Health, Attempts: rep.Attempts, Optional: soft[name]}
		if rep.Err != nil {
			sh.Err = rep.Err.Error()
		}
		p.res.health.Stages = append(p.res.health.Stages, sh)
		switch rep.Health {
		case resilience.OK:
			if st := p.stats[name]; st != nil {
				st.Health = resilience.OK
				st.Attempts = rep.Attempts
				p.res.stages = append(p.res.stages, *st)
			}
		case resilience.Degraded:
			// A partially-run body's stat (if any) is discarded in favour
			// of the degradation record.
			p.res.stages = append(p.res.stages, StageStat{
				Stage:     name,
				Detail:    "degraded: " + sh.Err,
				Precision: -1,
				Health:    resilience.Degraded,
				Err:       sh.Err,
				Attempts:  rep.Attempts,
			})
		}
	}
}

// setStat records one stage's statistics under its scheduler name. A
// retried attempt overwrites its predecessor's slot, and concurrent stages
// write distinct keys, so stats never misattribute under parallelism.
func (p *pipelineRun) setStat(name string, st StageStat) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats[name] = &st
}

// addStat records a statement-emitting stage's stat with the number of
// statements it counted. The union makes them and scores the stat's
// precision.
func (p *pipelineRun) addStat(ctx context.Context, name, detail string, n int) {
	obs.Current(ctx).AnnotateInt("statements", int64(n))
	p.setStat(name, StageStat{Stage: name, Detail: detail, Statements: n, Precision: -1})
}

// genWorld generates the ground-truth world that every substrate derives
// from, plus the scorer bound to it. The scorer recovers each name once for
// the run; it is not safe for concurrent use, and it needs no lock: the
// union, alignment and fusion score one after another in the DAG, and no
// other stage scores.
func (p *pipelineRun) genWorld(context.Context) error {
	p.res.World = kb.NewWorld(p.cfg.World)
	p.scorer = &eval.Scorer{World: p.res.World}
	return nil
}

// genDBpedia generates the DBpedia stand-in.
func (p *pipelineRun) genDBpedia(context.Context) error {
	p.dbp = kb.GenerateDBpedia(p.res.World, p.cfg.DBpedia)
	return nil
}

// genFreebase generates the Freebase stand-in and the entity index derived
// from it. Entity recognition uses Freebase's covered entities, as in the
// paper ("each class is specified as a set of representative entities of
// Freebase").
func (p *pipelineRun) genFreebase(context.Context) error {
	p.fb = kb.GenerateFreebase(p.res.World, p.cfg.Freebase)
	p.entIdx = extract.NewEntityIndex(p.fb)
	return nil
}

// genStream generates the query stream.
func (p *pipelineRun) genStream(context.Context) error {
	p.qsStream = querystream.Generate(p.res.World, p.cfg.Stream)
	return nil
}

// genSites generates the synthetic entity websites.
func (p *pipelineRun) genSites(context.Context) error {
	p.sites = webgen.GenerateSites(p.res.World, p.cfg.Sites)
	return nil
}

// genCorpus generates the synthetic text corpus.
func (p *pipelineRun) genCorpus(context.Context) error {
	p.corpus = webgen.GenerateCorpus(p.res.World, p.cfg.Corpus)
	return nil
}

// extractKB runs existing-KB extraction (mandatory: its statements anchor
// fusion even when every open-Web extractor degrades).
func (p *pipelineRun) extractKB(ctx context.Context) error {
	res := p.res
	res.KBX = kbx.ExtractAttributes(ctx, p.crit, p.dbp, p.fb)
	p.kbStmts = kbx.ExtractStatements(ctx, p.crit, p.dbp, p.fb)
	p.addStat(ctx, StageKBX, fmt.Sprintf("%d classes combined", len(res.KBX.PerClass)), p.kbStmts.Len())
	return nil
}

// extractQS runs query-stream extraction. Its stat reports the credible
// attributes it surfaced and their ontology precision (the stage emits
// attribute evidence, not statements).
func (p *pipelineRun) extractQS(ctx context.Context) error {
	res := p.res
	qres := qsx.Extract(ctx, p.qsStream, p.entIdx, p.crit)
	credible, genuine := 0, 0
	for class, cr := range qres.PerClass {
		cls := res.World.Ontology.Class(class)
		for attr := range cr.Credible {
			credible++
			if cls != nil {
				if _, ok := cls.Attribute(attr); ok {
					genuine++
				}
			}
		}
	}
	prec := -1.0
	if credible > 0 {
		prec = float64(genuine) / float64(credible)
	}
	res.QSX = qres
	obs.Current(ctx).AnnotateInt("statements", int64(credible))
	p.setStat(StageQSX, StageStat{
		Stage:      StageQSX,
		Detail:     fmt.Sprintf("%d records scanned, %d credible attrs", p.qsStream.Len(), credible),
		Statements: credible,
		Precision:  prec,
	})
	return nil
}

// buildSeeds combines KB attributes with credible query-stream attributes
// per class. It is supervised as the mandatory "seeds" stage (it rebuilds
// the seed map from scratch, so a retried attempt is idempotent). A
// degraded QSX stage leaves the seeds KB-only.
func (p *pipelineRun) buildSeeds(context.Context) error {
	res := p.res
	res.SeedSets = make(map[string]extract.AttrSet)
	for _, class := range res.World.Ontology.ClassNames() {
		seeds := res.KBX.SeedSet(class).Clone()
		if res.QSX != nil {
			if cr, ok := res.QSX.PerClass[class]; ok {
				seeds.Union(cr.Credible)
			}
		}
		res.SeedSets[class] = seeds
	}
	return nil
}

// extractDOM runs seeded DOM-tree extraction.
func (p *pipelineRun) extractDOM(ctx context.Context) error {
	res := p.res
	dcfg := p.cfg.DOM
	if p.cfg.DiscoverEntities {
		dcfg.DiscoverEntities = true
	}
	res.DOMX = domx.Extract(ctx, domx.FromWebgen(p.sites), p.entIdx, res.SeedSets, dcfg, p.crit)
	p.addStat(ctx, StageDOMX,
		fmt.Sprintf("%d sites, %d discovered attrs", len(p.sites), totalDiscoveredDOM(res.DOMX)), res.DOMX.Claims.Len())
	return nil
}

// extractLists runs multi-record list-page extraction. Hosts whose class
// cannot be resolved are counted and skipped instead of silently producing
// unlabeled records.
func (p *pipelineRun) extractLists(ctx context.Context) error {
	res := p.res
	lists := webgen.GenerateListPages(res.World, p.cfg.Sites.SitesPerClass, webgen.DefaultListConfig())
	classOf := hostClassResolver(res.World)
	known, unknown := splitHostsByClass(lists, classOf)
	listRes := domx.ExtractLists(ctx, domx.ListsFromWebgen(known, classOf), p.entIdx, p.crit)
	res.Lists = listRes
	detail := fmt.Sprintf("%d regions, %d records", listRes.Regions, listRes.Records)
	if len(unknown) > 0 {
		detail += fmt.Sprintf(", %d unknown host(s) skipped", len(unknown))
	}
	p.addStat(ctx, StageLists, detail, listRes.Claims.Len())
	return nil
}

// extractText runs seeded Web-text extraction.
func (p *pipelineRun) extractText(ctx context.Context) error {
	res := p.res
	tcfg := p.cfg.Text
	if p.cfg.DiscoverEntities {
		tcfg.DiscoverEntities = true
	}
	res.TextX = textx.Extract(ctx, p.corpus, p.entIdx, res.SeedSets, tcfg, p.crit)
	p.addStat(ctx, StageTextX,
		fmt.Sprintf("%d docs, %d patterns", len(p.corpus), len(res.TextX.Patterns)), res.TextX.Claims.Len())
	return nil
}

// part is one stage's statements as the union reads them: how many its
// stage counted, and the call that makes them.
type part struct {
	stage string
	n     int
	mint  func(dst []rdf.Statement) []rdf.Statement
}

// unionStatements makes the surviving extractors' statements and the
// discovered entities' into one list of their counted size: the one
// statement list of the run, which alignment rewrites in place and fusion
// reads. Each part's precision is scored on its window of the list, before
// alignment rewrites it. It is supervised as the mandatory "union" stage;
// the list is made afresh from the parts so a retried attempt is
// idempotent. Degraded extractors and a degraded discovery contribute
// nothing.
func (p *pipelineRun) unionStatements(ctx context.Context) error {
	res := p.res
	parts := []part{{StageKBX, p.kbStmts.Len(), p.kbStmts.AppendStatements}}
	if res.DOMX != nil {
		parts = append(parts, part{StageDOMX, res.DOMX.Claims.Len(), res.DOMX.AppendStatements})
	}
	if res.Lists != nil {
		parts = append(parts, part{StageLists, res.Lists.Claims.Len(), res.Lists.AppendStatements})
	}
	if res.TextX != nil {
		parts = append(parts, part{StageTextX, res.TextX.Claims.Len(), res.TextX.AppendStatements})
	}
	if disc := res.Discovered; disc != nil {
		conf := p.crit.Score(extract.ExtractorDOM, 2, 2)
		parts = append(parts, part{StageDiscover, disc.NumStatements(), func(dst []rdf.Statement) []rdf.Statement {
			return disc.AppendStatements(dst, conf)
		}})
	}
	n := 0
	for _, pt := range parts {
		n += pt.n
	}
	stmts := make([]rdf.Statement, 0, n)
	for _, pt := range parts {
		lo := len(stmts)
		stmts = pt.mint(stmts)
		prec := -1.0
		if len(stmts) > lo {
			prec = p.scorer.ScoreStatements(stmts[lo:]).Precision()
		}
		p.mu.Lock()
		p.stats[pt.stage].Precision = prec
		p.mu.Unlock()
	}
	res.Statements = stmts
	obs.Reg(ctx).Counter("akb_pipeline_statements_total").Add(int64(len(stmts)))
	obs.Current(ctx).AnnotateInt("statements", int64(len(stmts)))
	return nil
}

// extractTemporal runs temporal knowledge extraction and timeline fusion.
func (p *pipelineRun) extractTemporal(ctx context.Context) error {
	res := p.res
	tStmts := temporalx.ExtractText(p.corpus, p.entIdx)
	obs.Reg(ctx).Counter("akb_temporal_statements_total").Add(int64(len(tStmts)))
	obs.Current(ctx).AnnotateInt("statements", int64(len(tStmts)))
	timelines := temporalx.FuseTimelines(tStmts)
	correct, total := temporalx.Accuracy(res.World, timelines)
	prec := -1.0
	if total > 0 {
		prec = float64(correct) / float64(total)
	}
	res.Timelines = timelines
	p.setStat(StageTemporal, StageStat{
		Stage:      StageTemporal,
		Detail:     fmt.Sprintf("%d statements, %d timelines", len(tStmts), len(timelines)),
		Statements: len(tStmts),
		Precision:  prec,
	})
	return nil
}

// discoverEntities runs joint entity linking and discovery over the
// unknown-entity facts the surviving open-Web extractors harvested. Its
// statements reach the run through the union; it sets nothing the union
// reads until its last step, so a stage that panics contributes nothing.
func (p *pipelineRun) discoverEntities(ctx context.Context) error {
	res := p.res
	var facts []extract.EntityFact
	if res.DOMX != nil {
		facts = append(facts, res.DOMX.NewEntityFacts...)
	}
	if res.TextX != nil {
		facts = append(facts, res.TextX.NewEntityFacts...)
	}
	disc := entitydisc.Discover(facts, p.entIdx)
	obs.Reg(ctx).Counter("akb_discover_entities_total").Add(int64(len(disc.Entities)))
	p.addStat(ctx, StageDiscover,
		fmt.Sprintf("%d new entities, %d mentions linked, %d rejected",
			len(disc.Entities), len(disc.Linked), disc.Rejected),
		disc.NumStatements())
	res.Discovered = disc
	return nil
}

// alignStatements runs pre-fusion normalisation, rewriting the union's
// statement list in place.
func (p *pipelineRun) alignStatements(ctx context.Context) error {
	res := p.res
	stmts, rep := align.Normalize(res.Statements)
	res.Statements = stmts
	res.AlignReport = &rep
	obs.Reg(ctx).Counter("akb_align_corrections_total").Add(int64(rep.CorrectedValues))
	obs.Current(ctx).AnnotateInt("statements", int64(len(res.Statements)))
	p.setStat(StageAlign, StageStat{
		Stage: StageAlign,
		Detail: fmt.Sprintf("%d synonyms merged, %d values corrected, %d sub-attrs",
			len(rep.Synonyms), rep.CorrectedValues, len(rep.SubAttributes)),
		Statements: len(res.Statements),
		Precision:  p.scorer.ScoreStatements(res.Statements).Precision(),
	})
	return nil
}

// fuse resolves conflicts across whatever statements survived extraction.
func (p *pipelineRun) fuse(ctx context.Context) error {
	res := p.res
	reg := obs.Reg(ctx)
	method := p.cfg.Method
	if method == nil {
		// The default method carries the run's registry so the mapreduce
		// executor underneath it records fanout and task latencies. Its
		// worker pool follows the pipeline's parallelism: a Parallelism<=1
		// run stays genuinely serial instead of silently fanning out to
		// GOMAXPROCS, which kept the "serial" baseline from ever losing to
		// the parallel configuration it was compared against.
		workers := p.cfg.Parallelism
		if workers < 1 {
			workers = 1
		}
		method = &fusion.Full{Forest: res.World.Hier, Workers: workers, Obs: reg}
	}
	claims := fusion.BuildClaims(res.Statements, p.cfg.Granularity)
	res.fused = method.Fuse(claims)
	res.FusionMetrics = p.scorer.ScoreFusion(res.fused)
	reg.Counter("akb_fusion_claims_total").Add(int64(claims.NumClaims()))
	reg.Gauge("akb_fusion_sources").Set(float64(len(claims.SourceNames)))
	conflicts := 0
	for _, it := range claims.Items {
		if len(it.Values) > 1 {
			conflicts++
		}
	}
	reg.Counter("akb_fusion_conflicts_total").Add(int64(conflicts))
	reg.Counter("akb_fusion_truths_total").Add(int64(res.fused.NumTruths()))
	obs.Current(ctx).AnnotateInt("statements", int64(claims.NumClaims()))
	// The stat slot is keyed by the scheduler name; the rendered stage
	// label carries the fusion method.
	p.setStat(StageFusion, StageStat{
		Stage:      "fusion/" + res.fused.Method,
		Detail:     fmt.Sprintf("%d items, %d sources", len(claims.Items), len(claims.SourceNames)),
		Statements: claims.NumClaims(),
		Precision:  res.FusionMetrics.Precision(),
	})
	return nil
}

// augment reports the augmented KB: every accepted truth is one triple
// attached to the Freebase stand-in. The triples themselves are read from
// the fused decisions (store.ResultFacts for serving, `akb export` for
// N-Triples), so the stage only counts them.
func (p *pipelineRun) augment(ctx context.Context) error {
	accepted := p.res.fused.NumTruths()
	obs.Reg(ctx).Counter("akb_pipeline_augmented_triples_total").Add(int64(accepted))
	obs.Current(ctx).AnnotateInt("statements", int64(accepted))
	p.setStat(StageAugment, StageStat{
		Stage:      StageAugment,
		Detail:     "accepted triples attached to Freebase",
		Statements: accepted,
		Precision:  -1,
	})
	return nil
}

// hostClassResolver maps generated hostnames ("film-0.example.com") back to
// their class names; unknown hosts resolve to "".
func hostClassResolver(w *kb.World) func(string) string {
	byPrefix := map[string]string{}
	for _, c := range w.Ontology.ClassNames() {
		byPrefix[strings.ToLower(c)] = c
	}
	return func(host string) string {
		prefix := host
		if i := strings.IndexByte(host, '-'); i >= 0 {
			prefix = host[:i]
		}
		return byPrefix[prefix]
	}
}

// splitHostsByClass partitions generated list pages into hosts whose class
// resolves and hosts that do not. A host of no class would produce
// unlabeled records, so it is skipped and surfaced (sorted) for the stage
// detail to count.
func splitHostsByClass(lists map[string][]*webgen.ListPage, classOf func(string) string) (known map[string][]*webgen.ListPage, unknown []string) {
	known = make(map[string][]*webgen.ListPage, len(lists))
	for host, pages := range lists {
		if classOf(host) == "" {
			unknown = append(unknown, host)
			continue
		}
		known[host] = pages
	}
	sort.Strings(unknown)
	return known, unknown
}

func totalDiscoveredDOM(r *domx.Result) int {
	n := 0
	for _, cr := range r.PerClass {
		n += cr.Discovered.Len()
	}
	return n
}

// AttributeGrowth reports, per class, the attribute-set sizes along the
// pipeline: KB-combined seeds, +query stream, +DOM discovery, +text
// discovery — the ontology-augmentation story of the paper.
type AttributeGrowth struct {
	Class      string
	KBCombined int
	WithQuery  int
	WithDOM    int
	WithText   int
}

// Growth summarises attribute-set growth across the pipeline stages. It
// tolerates degraded runs: a stage that failed soft contributes no growth
// beyond its predecessor.
func (r *Result) Growth() []AttributeGrowth {
	classes := r.World.Ontology.ClassNames()
	out := make([]AttributeGrowth, 0, len(classes))
	for _, class := range classes {
		g := AttributeGrowth{Class: class}
		g.KBCombined = r.KBX.SeedSet(class).Len()
		if ss, ok := r.SeedSets[class]; ok {
			g.WithQuery = ss.Len()
		} else {
			g.WithQuery = g.KBCombined
		}
		g.WithDOM = g.WithQuery
		if r.DOMX != nil {
			if cr, ok := r.DOMX.PerClass[class]; ok {
				g.WithDOM = cr.All.Len()
			}
		}
		extra := 0
		if r.TextX != nil {
			if cr, ok := r.TextX.PerClass[class]; ok {
				for attr := range cr.Discovered {
					covered := false
					if r.DOMX != nil {
						if dcr, ok2 := r.DOMX.PerClass[class]; ok2 && dcr.All.Has(attr) {
							covered = true
						}
					}
					if !covered {
						extra++
					}
				}
			}
		}
		g.WithText = g.WithDOM + extra
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
