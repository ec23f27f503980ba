package core

import (
	"context"
	"testing"

	"akb/internal/fusion"
)

// mustRun runs the pipeline without injected faults, where every stage is
// deterministic and none can fail.
func mustRun(cfg Config) *Result {
	res, err := runPipeline(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	return res
}

func TestPipelineEndToEnd(t *testing.T) {
	res := mustRun(DefaultConfig())

	if res.World == nil || res.KBX == nil || res.QSX == nil || res.DOMX == nil || res.TextX == nil {
		t.Fatal("pipeline stages missing")
	}
	if len(res.Statements) == 0 {
		t.Fatal("no statements extracted")
	}
	if res.Fused() == nil || len(res.Fused().Decisions) == 0 {
		t.Fatal("no fusion decisions")
	}
	if res.Fused().NumTruths() == 0 {
		t.Fatal("no triples in the augmented KB")
	}
	// The paper's goal: high precision and recall for the fused knowledge.
	if p := res.FusionMetrics.Precision(); p < 0.85 {
		t.Errorf("fusion precision = %.3f, want >= 0.85 (%+v)", p, res.FusionMetrics)
	}
	if r := res.FusionMetrics.Recall(); r < 0.7 {
		t.Errorf("fusion recall = %.3f, want >= 0.7 (%+v)", r, res.FusionMetrics)
	}
}

func TestPipelineStagesReported(t *testing.T) {
	res := mustRun(DefaultConfig())
	wantStages := []string{"extract/kbx", "extract/qsx", "extract/domx", "extract/textx"}
	if len(res.Stats()) < len(wantStages)+2 {
		t.Fatalf("got %d stages: %+v", len(res.Stats()), res.Stats())
	}
	for i, w := range wantStages {
		if res.Stats()[i].Stage != w {
			t.Errorf("stage %d = %q, want %q", i, res.Stats()[i].Stage, w)
		}
	}
	// KB extraction is near-perfect; DOM and text are noisier but usable.
	if res.Stats()[0].Precision < 0.9 {
		t.Errorf("kbx precision = %.3f", res.Stats()[0].Precision)
	}
	for _, st := range res.Stats()[2:4] {
		if st.Statements == 0 {
			t.Errorf("%s produced no statements", st.Stage)
		}
		if st.Precision < 0.7 {
			t.Errorf("%s precision = %.3f, want >= 0.7", st.Stage, st.Precision)
		}
	}
}

func TestPipelineGrowthMonotone(t *testing.T) {
	res := mustRun(DefaultConfig())
	growth := res.Growth()
	if len(growth) != 5 {
		t.Fatalf("growth rows = %d, want 5", len(growth))
	}
	for _, g := range growth {
		if g.KBCombined <= 0 {
			t.Errorf("%s: empty KB seed set", g.Class)
		}
		if g.WithQuery < g.KBCombined {
			t.Errorf("%s: query stage shrank attrs (%d < %d)", g.Class, g.WithQuery, g.KBCombined)
		}
		if g.WithDOM < g.WithQuery {
			t.Errorf("%s: DOM stage shrank attrs (%d < %d)", g.Class, g.WithDOM, g.WithQuery)
		}
		if g.WithText < g.WithDOM {
			t.Errorf("%s: text stage shrank attrs (%d < %d)", g.Class, g.WithText, g.WithDOM)
		}
	}
	// At least one class must show open-Web discovery beyond the seeds.
	grew := false
	for _, g := range growth {
		if g.WithDOM > g.WithQuery {
			grew = true
		}
	}
	if !grew {
		t.Error("DOM extraction discovered nothing beyond seeds in any class")
	}
}

func TestPipelineFusionBeatsBaselineVote(t *testing.T) {
	cfg := DefaultConfig()
	full := mustRun(cfg)

	cfgVote := cfg
	cfgVote.Method = &fusion.Vote{}
	vote := mustRun(cfgVote)

	if full.FusionMetrics.F1() < vote.FusionMetrics.F1() {
		t.Errorf("FULL F1 (%.3f) below VOTE F1 (%.3f)",
			full.FusionMetrics.F1(), vote.FusionMetrics.F1())
	}
}

func TestPipelineDeterministic(t *testing.T) {
	a := mustRun(DefaultConfig())
	b := mustRun(DefaultConfig())
	if len(a.Statements) != len(b.Statements) {
		t.Fatalf("statement counts differ: %d vs %d", len(a.Statements), len(b.Statements))
	}
	if a.Fused().NumTruths() != b.Fused().NumTruths() {
		t.Fatalf("augmented sizes differ: %d vs %d", a.Fused().NumTruths(), b.Fused().NumTruths())
	}
	if a.FusionMetrics != b.FusionMetrics {
		t.Fatalf("metrics differ: %+v vs %+v", a.FusionMetrics, b.FusionMetrics)
	}
}

func TestPipelineQSXHotelNA(t *testing.T) {
	res := mustRun(DefaultConfig())
	rows := res.QSX.Table3()
	for _, row := range rows {
		if row.Class == "Hotel" && row.CredibleAttrs != -1 {
			t.Errorf("Hotel credible = %d, want N/A", row.CredibleAttrs)
		}
	}
}
