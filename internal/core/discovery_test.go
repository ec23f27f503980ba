package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"akb/internal/eval"
	"akb/internal/extract"
	"akb/internal/rdf"
	"akb/internal/resilience"
)

func discoveryConfig() Config {
	cfg := DefaultConfig()
	// Low Freebase coverage leaves many world entities unknown to the
	// entity index, so websites and texts mention entities to discover.
	cfg.Freebase.Coverage = 0.5
	cfg.DBpedia.Coverage = 0.4
	cfg.DiscoverEntities = true
	return cfg
}

func TestPipelineEntityDiscovery(t *testing.T) {
	res := mustRun(discoveryConfig())
	if res.Discovered == nil {
		t.Fatal("discovery did not run")
	}
	if len(res.Discovered.Entities) == 0 {
		t.Fatal("no entities discovered despite 50% KB coverage")
	}
	// Discovered entities must be genuine world entities (the generator
	// renders pages only for real entities), and must not already be in
	// the Freebase-covered index.
	for _, e := range res.Discovered.Entities {
		we, ok := res.World.Entity(e.Name)
		if !ok {
			t.Errorf("discovered entity %q does not exist in the world", e.Name)
			continue
		}
		if we.Class != e.Class {
			t.Errorf("discovered %q class = %q, want %q", e.Name, e.Class, we.Class)
		}
	}
}

func TestPipelineDiscoveryStatementsJoinFusion(t *testing.T) {
	res := mustRun(discoveryConfig())
	discovered := map[string]bool{}
	for _, e := range res.Discovered.Entities {
		discovered[e.Name] = true
	}
	// At least one fused decision must concern a discovered entity.
	found := false
	for _, d := range res.Fused().Decisions {
		if discovered[extract.AttrFromIRI(d.Item.Subject)] {
			found = true
			break
		}
	}
	if !found {
		t.Error("no fusion decision about a discovered entity")
	}
	// The discover stage must be reported.
	seen := false
	for _, st := range res.Stats() {
		if st.Stage == "discover" {
			seen = true
			if st.Statements == 0 {
				t.Error("discover stage reported zero statements")
			}
		}
	}
	if !seen {
		t.Error("discover stage missing from report")
	}
}

// allStagesConfig is the default seed-1 scale-1 build with every optional
// stage on.
func allStagesConfig() Config {
	cfg := DefaultConfig()
	cfg.ListPages, cfg.Temporal, cfg.DiscoverEntities, cfg.Align = true, true, true, true
	return cfg
}

// TestFusionReadsTheListUnionMade: the statement list is made once, at the
// size the extractor stages counted. The union makes each part into its own
// window of the list, alignment rewrites the list in place, and fusion
// reads that same backing array.
func TestFusionReadsTheListUnionMade(t *testing.T) {
	p := newPipelineRun(allStagesConfig())
	stages := p.stages()
	var made, read []rdf.Statement
	var unaligned []rdf.Statement // the union's list before alignment rewrites it
	for i := range stages {
		run := stages[i].Run
		switch stages[i].Name {
		case StageUnion:
			stages[i].Run = func(ctx context.Context) error {
				err := run(ctx)
				made, unaligned = p.res.Statements, slices.Clone(p.res.Statements)
				return err
			}
		case StageFusion:
			stages[i].Run = func(ctx context.Context) error {
				read = p.res.Statements
				return run(ctx)
			}
		}
	}
	res, err := p.run(context.Background(), stages)
	if err != nil {
		t.Fatal(err)
	}
	if res.Discovered.NumStatements() == 0 || res.AlignReport == nil {
		t.Fatalf("%d discovered statements, aligned %v: the case tests nothing", res.Discovered.NumStatements(), res.AlignReport != nil)
	}
	if len(made) == 0 || cap(made) != len(made) {
		t.Fatalf("the union made %d statements in a list of %d", len(made), cap(made))
	}
	if len(read) != len(made) || &read[0] != &made[0] {
		t.Fatalf("fusion read %d statements, the union made %d: want the same backing array", len(read), len(made))
	}
	if len(res.Statements) != len(made) || &res.Statements[0] != &made[0] {
		t.Error("Result.Statements is not the union's list")
	}
	checkUnionWindows(t, res, unaligned)
}

// checkUnionWindows fails t unless the union's list is the parts' windows
// end to end, in the order kbx, domx, lists, textx, discover: each window
// as long as its stage's count, holding that extractor's statements, and
// the stage's precision scored on it.
func checkUnionWindows(t *testing.T, res *Result, union []rdf.Statement) {
	t.Helper()
	extractor := map[string]string{
		StageKBX: extract.ExtractorKB, StageDOMX: extract.ExtractorDOM, StageLists: extract.ExtractorDOM,
		StageTextX: extract.ExtractorText, StageDiscover: "entitydisc",
	}
	scorer := &eval.Scorer{World: res.World}
	lo := 0
	for _, st := range res.Stats() {
		want, ok := extractor[st.Stage]
		if !ok {
			continue
		}
		if lo+st.Statements > len(union) {
			t.Fatalf("%s counts %d statements, %d are left of the union", st.Stage, st.Statements, len(union)-lo)
		}
		window := union[lo : lo+st.Statements]
		if st.Statements == 0 {
			t.Errorf("%s counts no statement: the case tests nothing", st.Stage)
			continue
		}
		for _, s := range window {
			if s.Provenance.Extractor != want {
				t.Fatalf("%s's window holds a statement of %q: %v", st.Stage, s.Provenance.Extractor, s)
			}
		}
		if prec := scorer.ScoreStatements(window).Precision(); st.Precision != prec {
			t.Errorf("%s precision %.4f, its window scores %.4f", st.Stage, st.Precision, prec)
		}
		lo += st.Statements
	}
	if lo != len(union) {
		t.Errorf("the stages count %d statements, the union holds %d", lo, len(union))
	}
}

// TestDiscoveryJoinsTheUnion: discovery runs before the union and alignment
// after it, at every parallelism.
func TestDiscoveryJoinsTheUnion(t *testing.T) {
	for _, par := range parallelisms {
		cfg := allStagesConfig()
		cfg.Parallelism = par
		res := mustRun(cfg)
		pos := map[string]int{}
		for i, sh := range res.Health().Stages {
			pos[sh.Stage] = i
		}
		if !(pos[StageDiscover] < pos[StageUnion] && pos[StageUnion] < pos[StageAlign]) {
			t.Errorf("par=%d: stage order %v, want discover < union < align", par, pos)
		}
	}
}

// TestDegradedDiscoveryContributesNothing: a discovery failed by the fault
// plan leaves the statements a run without discovery makes, and a retried
// union rebuilds the list from its parts, discovery's included.
func TestDegradedDiscoveryContributesNothing(t *testing.T) {
	without := discoveryConfig()
	without.DiscoverEntities = false
	want := mustRun(without).Statements

	failed := discoveryConfig()
	failed.Faults = &resilience.FaultPlan{Seed: 1, Stages: map[string]resilience.StageFault{StageDiscover: {FailProb: 1}}}
	res := mustRun(failed)
	if sh, _ := res.Health().Stage(StageDiscover); sh.Health != resilience.Degraded {
		t.Fatalf("discover health = %v, want degraded", sh.Health)
	}
	if res.Discovered != nil {
		t.Error("a degraded discovery left a result")
	}
	if !reflect.DeepEqual(res.Statements, want) {
		t.Errorf("degraded discovery: %d statements, want the %d of a run without discovery", len(res.Statements), len(want))
	}

	clean := mustRun(discoveryConfig())
	if len(clean.Statements) <= len(want) {
		t.Fatalf("discovery added no statement (%d vs %d): the case tests nothing", len(clean.Statements), len(want))
	}
	retried := &resilience.FaultPlan{Stages: map[string]resilience.StageFault{StageUnion: {FailProb: 0.5, Transient: true}}}
	fails := func(attempt int) bool { _, err := retried.Inject(StageUnion, attempt); return err != nil }
	for !fails(1) || fails(2) {
		retried.Seed++
	}
	cfg := discoveryConfig()
	cfg.Faults = retried
	res = mustRun(cfg)
	if sh, _ := res.Health().Stage(StageUnion); sh.Attempts != 2 {
		t.Fatalf("union took %d attempts, want a retry", sh.Attempts)
	}
	if !reflect.DeepEqual(res.Statements, clean.Statements) {
		t.Errorf("retried union: %d statements, want the clean run's %d", len(res.Statements), len(clean.Statements))
	}
}

func TestPipelineDiscoveryDisabledByDefault(t *testing.T) {
	res := mustRun(DefaultConfig())
	if res.Discovered != nil {
		t.Error("discovery ran without being enabled")
	}
	for _, st := range res.Stats() {
		if st.Stage == "discover" {
			t.Error("discover stage present when disabled")
		}
	}
}

func TestPipelineAlignStageReported(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sites.SynonymProb = 0.3
	cfg.Sites.TypoProb = 0.1
	cfg.Align = true
	res := mustRun(cfg)
	if res.AlignReport == nil {
		t.Fatal("alignment did not run")
	}
	if len(res.AlignReport.Synonyms) == 0 {
		t.Error("no synonyms merged despite 30% synonym labels")
	}
	if res.AlignReport.CorrectedValues == 0 {
		t.Error("no values corrected despite 10% typos")
	}
	seen := false
	for _, st := range res.Stats() {
		if st.Stage == "align" {
			seen = true
		}
	}
	if !seen {
		t.Error("align stage missing from report")
	}
}

func TestPipelineListPages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ListPages = true
	res := mustRun(cfg)
	if res.Lists == nil {
		t.Fatal("list extraction did not run")
	}
	if res.Lists.Regions == 0 || res.Lists.Records == 0 || res.Lists.Claims.Len() == 0 {
		t.Fatalf("empty list extraction: %+v", res.Lists)
	}
	if cap(res.Statements) != len(res.Statements) {
		t.Errorf("the union made %d statements in a list of %d", len(res.Statements), cap(res.Statements))
	}
	checkUnionWindows(t, res, res.Statements)
	seen := false
	for _, st := range res.Stats() {
		if st.Stage == "extract/lists" {
			seen = true
			if st.Precision < 0.8 {
				t.Errorf("list stage precision = %.3f", st.Precision)
			}
		}
	}
	if !seen {
		t.Error("extract/lists stage missing")
	}
	// More claims should not hurt fused quality.
	base := mustRun(DefaultConfig())
	if res.FusionMetrics.F1() < base.FusionMetrics.F1()-0.02 {
		t.Errorf("list pages degraded fusion: %.3f vs %.3f",
			res.FusionMetrics.F1(), base.FusionMetrics.F1())
	}
}

func TestPipelineTemporal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Temporal = true
	res := mustRun(cfg)
	if len(res.Timelines) == 0 {
		t.Fatal("no timelines fused")
	}
	seen := false
	for _, st := range res.Stats() {
		if st.Stage == "extract/temporal" {
			seen = true
			if st.Precision < 0.8 {
				t.Errorf("temporal year-accuracy = %.3f, want >= 0.8", st.Precision)
			}
		}
	}
	if !seen {
		t.Error("temporal stage missing")
	}
	// Timelines concern genuinely temporal attributes.
	for _, tl := range res.Timelines {
		e, ok := res.World.Entity(tl.Entity)
		if !ok {
			t.Errorf("timeline for unknown entity %q", tl.Entity)
			continue
		}
		if len(e.Timeline(tl.Attr)) == 0 {
			t.Errorf("timeline for non-temporal attribute %s/%s", tl.Entity, tl.Attr)
		}
	}
}
