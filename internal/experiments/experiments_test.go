package experiments

import (
	"context"
	"testing"

	"akb/internal/core"
	"akb/internal/extract"
)

func TestTable1MatchesPaperScaled(t *testing.T) {
	rows := Table1(1)
	want := map[string][2]int{
		"YAGO": {10000, 100}, "DBpedia": {4000, 6000},
		"Freebase": {25000, 4000}, "NELL": {300, 500},
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		w := want[r.KB]
		if r.Entities != w[0] || r.Attributes != w[1] {
			t.Errorf("%s = %d/%d, want %d/%d", r.KB, r.Entities, r.Attributes, w[0], w[1])
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2(1)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Spot-check the University row, the paper's motivating case (9
	// Freebase properties expand to 57; combined 518).
	for _, r := range rows {
		if r.Class == "University" {
			if r.FreebaseRaw != 9 || r.FreebaseExtract != 57 || r.Combined != 518 {
				t.Errorf("University row = %+v", r)
			}
		}
	}
}

func TestTable3ShapeAtSmallScale(t *testing.T) {
	rows := Table3(Table3Config{Seed: 1, Scale: 1000})
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byClass := map[string]int{}
	rel := map[string]int{}
	for _, r := range rows {
		byClass[r.Class] = r.CredibleAttrs
		rel[r.Class] = r.RelevantRecords
	}
	if byClass["Hotel"] != -1 {
		t.Errorf("Hotel credible = %d, want N/A", byClass["Hotel"])
	}
	// Relevant-record ordering follows the paper: Film > Country > Book >
	// University > Hotel.
	if !(rel["Film"] > rel["Country"] && rel["Country"] > rel["Book"] &&
		rel["Book"] > rel["University"] && rel["University"] > rel["Hotel"]) {
		t.Errorf("relevant ordering broken: %v", rel)
	}
	// Credible ordering: Country > Book > Film > University.
	if !(byClass["Country"] > byClass["Book"] && byClass["Book"] > byClass["Film"] &&
		byClass["Film"] > byClass["University"] && byClass["University"] > 0) {
		t.Errorf("credible ordering broken: %v", byClass)
	}
}

func TestPipelineReport(t *testing.T) {
	rep, err := PipelineContext(context.Background(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) < 6 {
		t.Fatalf("stages = %d", len(rep.Stages))
	}
	if rep.AugmentedTriples == 0 || rep.TotalStatements == 0 {
		t.Fatal("empty pipeline report")
	}
	if rep.Fusion.Precision() < 0.85 {
		t.Errorf("fusion precision = %.3f", rep.Fusion.Precision())
	}
	if len(rep.Growth) != 5 {
		t.Errorf("growth rows = %d", len(rep.Growth))
	}
}

func TestDOMSweepShape(t *testing.T) {
	rows := DOMSweep(1)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	bySites := map[string]DOMSweepRow{}
	bySeeds := map[string]DOMSweepRow{}
	byThr := map[string]DOMSweepRow{}
	for _, r := range rows {
		switch r.Param {
		case "sites/class":
			bySites[r.Value] = r
		case "seed attrs":
			bySeeds[r.Value] = r
		case "similarity":
			byThr[r.Value] = r
		}
	}
	// More sites discover at least as much as fewer sites.
	if bySites["8"].Discovered < bySites["1"].Discovered {
		t.Errorf("more sites discovered less: %+v vs %+v", bySites["8"], bySites["1"])
	}
	// Strict threshold keeps precision at least as high as loose.
	if byThr["0.999"].Precision < byThr["0.500"].Precision {
		t.Errorf("strict threshold less precise: %+v vs %+v", byThr["0.999"], byThr["0.500"])
	}
	// Loose threshold discovers at least as many (junk included).
	if byThr["0.500"].Discovered < byThr["0.999"].Discovered {
		t.Errorf("loose threshold discovered less: %+v vs %+v", byThr["0.500"], byThr["0.999"])
	}
}

func TestFusionComparisonShape(t *testing.T) {
	rows := FusionComparison(1)
	if len(rows) != 24 { // (7 core + 4 fact-finders + adaptive) x 2 workloads
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	score := map[string]map[string]float64{}
	for _, r := range rows {
		if score[r.Workload] == nil {
			score[r.Workload] = map[string]float64{}
		}
		score[r.Workload][r.Method] = r.F1
		if r.P < 0 || r.P > 1 || r.R < 0 || r.R > 1 {
			t.Errorf("%s/%s out-of-range metrics: %+v", r.Workload, r.Method, r)
		}
	}
	// The composed method must at least match VOTE on the clean pipeline...
	if score["pipeline"]["FULL(multi+conf+corr+hier)"] < score["pipeline"]["VOTE"] {
		t.Errorf("FULL below VOTE on pipeline: %v", score["pipeline"])
	}
	// ...and clearly beat it under copiers (the crossover the paper's
	// correlation bullet predicts).
	if score["with-copiers"]["FULL(multi+conf+corr+hier)"] <= score["with-copiers"]["VOTE"] {
		t.Errorf("FULL not ahead of VOTE under copiers: %v", score["with-copiers"])
	}
}

func TestAblationsShape(t *testing.T) {
	rows := Ablations(1)
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	by := map[string]map[string]float64{}
	for _, r := range rows {
		if by[r.Ablation] == nil {
			by[r.Ablation] = map[string]float64{}
		}
		by[r.Ablation][r.Variant] = r.F1
	}
	if by["hierarchy"]["VOTE+conf+hier"] < by["hierarchy"]["VOTE+conf"] {
		t.Errorf("hierarchy ablation inverted: %v", by["hierarchy"])
	}
	if by["correlation"]["on"] < by["correlation"]["off"] {
		t.Errorf("correlation ablation inverted: %v", by["correlation"])
	}
	if by["alignment"]["on"] < by["alignment"]["off"] {
		t.Errorf("alignment ablation inverted: %v", by["alignment"])
	}
}

func TestInjectCopiers(t *testing.T) {
	res := runPipeline(core.DefaultConfig())
	stress := InjectCopiers(res, 2)
	if len(stress) <= len(res.Statements) {
		t.Fatal("no copier statements injected")
	}
	mirrors := map[string]int{}
	for _, s := range stress {
		if len(s.Provenance.Source) > 6 && s.Provenance.Source[:6] == "mirror" {
			mirrors[s.Provenance.Source]++
		}
	}
	if len(mirrors) != 2*5 { // 2 copies x 5 classes
		t.Errorf("mirror sources = %d, want 10 (%v)", len(mirrors), mirrors)
	}
	for _, s := range stress {
		if s.Provenance.Extractor == extract.ExtractorDOM && s.Confidence <= 0 {
			t.Error("copied statement lost confidence")
		}
	}
}

func TestEntityDiscoverySweep(t *testing.T) {
	rows := EntityDiscovery(1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Precision < 0.9 {
			t.Errorf("coverage %.1f: discovery precision = %.3f, want >= 0.9", r.Coverage, r.Precision)
		}
		if r.Coverage <= 0.5 && r.Discovered == 0 {
			t.Errorf("coverage %.1f: nothing discovered", r.Coverage)
		}
	}
	// Lower coverage leaves more entities to find: discovery volume must
	// not shrink as coverage drops.
	for i := 1; i < len(rows); i++ {
		if rows[i].Discovered < rows[i-1].Discovered {
			t.Errorf("discovery volume dropped: %v then %v", rows[i-1], rows[i])
		}
	}
}

func TestCalibrationDiscriminates(t *testing.T) {
	rows := Calibration(1, 10)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	var lowC, lowT, highC, highT float64
	for _, r := range rows {
		if r.High <= 0.5 {
			lowC += float64(r.Count)
			lowT += r.Precision * float64(r.Count)
		} else {
			highC += float64(r.Count)
			highT += r.Precision * float64(r.Count)
		}
	}
	if lowC == 0 || highC == 0 {
		t.Fatal("empty belief half")
	}
	lowP, highP := lowT/lowC, highT/highC
	if highP <= lowP {
		t.Errorf("beliefs not discriminative: precision above 0.5 = %.3f, below = %.3f", highP, lowP)
	}
	if highP < 0.85 {
		t.Errorf("high-belief precision = %.3f, want >= 0.85", highP)
	}
}

func TestTemporalSweep(t *testing.T) {
	rows := Temporal(1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Statements == 0 || r.Timelines == 0 {
			t.Fatalf("empty row %+v", r)
		}
		// Fusion never hurts year accuracy (majority voting per year).
		if r.FusedAccuracy < r.RawAccuracy-0.01 {
			t.Errorf("fusion hurt accuracy at rate %.1f: raw=%.3f fused=%.3f",
				r.ErrorRate, r.RawAccuracy, r.FusedAccuracy)
		}
		// Accuracy decreases with noise.
		if i > 0 && r.FusedAccuracy > rows[i-1].FusedAccuracy+0.01 {
			t.Errorf("accuracy rose with noise: %+v after %+v", r, rows[i-1])
		}
	}
	if rows[0].FusedAccuracy < 0.999 {
		t.Errorf("noiseless fused accuracy = %.3f, want 1.0", rows[0].FusedAccuracy)
	}
}

func TestGranularityShape(t *testing.T) {
	rows := Granularity(1)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	f1 := map[string]map[string]float64{}
	for _, r := range rows {
		if f1[r.Method] == nil {
			f1[r.Method] = map[string]float64{}
		}
		f1[r.Method][r.Granularity] = r.F1
	}
	for method, byGran := range f1 {
		if byGran["by-source"] < byGran["by-extractor"] {
			t.Errorf("%s: extractor-level provenance outperformed source-level: %v", method, byGran)
		}
	}
}

func TestScalabilityShape(t *testing.T) {
	rows := Scalability(1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The smallest world fuses in a millisecond or two, so one preempted run
	// is a ratio of five: each row's cost is the fastest of three runs.
	for run := 0; run < 2; run++ {
		for i, again := range Scalability(1) {
			rows[i].FuseMS = min(rows[i].FuseMS, again.FuseMS)
		}
	}
	for i := 1; i < len(rows); i++ {
		// Claim volume grows with the world.
		if rows[i].Statements <= rows[i-1].Statements {
			t.Errorf("statements did not grow: %+v then %+v", rows[i-1], rows[i])
		}
		// Fusion cost grows no worse than quadratically in claim volume
		// (correlation detection is quadratic in sources, everything else
		// linear in claims).
		ratio := float64(rows[i].Statements) / float64(rows[i-1].Statements)
		if rows[i-1].FuseMS > 0 {
			cost := float64(rows[i].FuseMS) / float64(rows[i-1].FuseMS)
			if cost > ratio*ratio*1.5 {
				t.Errorf("fusion cost superquadratic: volume x%.1f, cost x%.1f", ratio, cost)
			}
		}
	}
}
