package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"akb/internal/core"
	"akb/internal/eval"
	"akb/internal/experiments"
	"akb/internal/resilience"
)

// cmdChaos sweeps per-stage failure probabilities over the resilience
// harness and prints a degradation table: how many stages failed soft at
// each rate and how much fusion precision the surviving stages retained.
// Every run is deterministic in (-seed, -fault-seed, rate).
func cmdChaos(args []string) error {
	fs, seed := newFlagSet("chaos")
	rates := fs.String("rates", "0,0.25,0.5,0.75,1", "comma-separated per-attempt failure probabilities to sweep")
	targets := fs.String("stages", "optional", "fault targets: 'optional', 'all', or comma-separated stage names")
	transient := fs.Bool("transient", false, "injected faults are transient (retries can recover them)")
	retries := fs.Int("retries", 1, "attempt budget per stage (>1 lets transient faults recover)")
	fseed := fs.Int64("fault-seed", 1, "seed for deterministic fault decisions")
	outPath := fs.String("out", "", "also write the sweep as stable JSON to this file (diffable across PRs)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var stages []string
	switch *targets {
	case "optional":
		stages = core.OptionalStageNames()
	case "all":
		stages = append(core.MandatoryStageNames(), core.OptionalStageNames()...)
	default:
		for _, s := range strings.Split(*targets, ",") {
			if s = strings.TrimSpace(s); s != "" {
				stages = append(stages, s)
			}
		}
	}
	if len(stages) == 0 {
		return fmt.Errorf("no fault target stages")
	}

	fmt.Printf("Chaos sweep over %d stage(s): %s\n", len(stages), strings.Join(stages, ", "))
	fmt.Printf("faults: transient=%v retries=%d fault-seed=%d\n\n", *transient, *retries, *fseed)

	sweep := chaosSweep{
		Targets: stages, Transient: *transient, Retries: *retries,
		Seed: *seed, FaultSeed: *fseed,
	}
	rows := make([][]string, 0)
	for _, rs := range strings.Split(*rates, ",") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		rate, err := strconv.ParseFloat(rs, 64)
		if err != nil || rate < 0 || rate > 1 {
			return fmt.Errorf("bad rate %q: want a probability in [0,1]", rs)
		}
		plan := &resilience.FaultPlan{Seed: *fseed, Stages: map[string]resilience.StageFault{}}
		for _, st := range stages {
			plan.Stages[st] = resilience.StageFault{FailProb: rate, Transient: *transient}
		}
		cfg := core.New(core.WithSeed(*seed)).Config()
		// Exercise every optional stage so the degradation surface is full.
		cfg.ListPages = true
		cfg.Temporal = true
		cfg.DiscoverEntities = true
		cfg.Align = true
		cfg.Faults = plan
		// Backoff without sleeping: the sweep measures degradation, not
		// wall-clock recovery.
		cfg.Retry = resilience.RetryPolicy{MaxAttempts: *retries}

		rep, err := experiments.PipelineContext(context.Background(), cfg)
		if err != nil {
			rows = append(rows, []string{
				fmt.Sprintf("%.2f", rate), "-", "pipeline failed: " + firstLine(err.Error()), "-", "-", "-",
			})
			sweep.Rows = append(sweep.Rows, chaosRow{Rate: rate, Failed: firstLine(err.Error())})
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", rate),
			fmt.Sprintf("%d/%d", len(rep.Degraded), len(rep.Health.Stages)),
			degradedSummary(rep.Degraded),
			fmt.Sprintf("%d", rep.TotalStatements),
			fmt.Sprintf("%.3f", rep.Fusion.Precision()),
			fmt.Sprintf("%d", rep.AugmentedTriples),
		})
		sweep.Rows = append(sweep.Rows, chaosRow{
			Rate:             rate,
			Degraded:         rep.Degraded,
			SupervisedStages: len(rep.Health.Stages),
			Statements:       rep.TotalStatements,
			FusionPrecision:  rep.Fusion.Precision(),
			AugmentedTriples: rep.AugmentedTriples,
			Health:           rep.Health,
		})
	}
	fmt.Print(eval.FormatTable(
		[]string{"Fail rate", "Degraded", "Stages failed", "Statements", "Fusion prec", "Augmented"}, rows))
	fmt.Println("\nMandatory stages (the substrates/* generators, seeds, union, extract/kbx, fusion, augment) abort the run when faulted;")
	fmt.Println("optional stages degrade it: fusion proceeds on whatever the surviving extractors produced.")
	if *outPath != "" {
		if err := writeJSONFile(*outPath, sweep); err != nil {
			return err
		}
		fmt.Printf("\nsweep written to %s\n", *outPath)
	}
	return nil
}

// chaosSweep is the machine-readable form of one degradation sweep. Every
// field is deterministic in (seed, fault-seed, rates), so two sweeps of
// the same code diff clean and behaviour changes show up in review.
type chaosSweep struct {
	Targets   []string   `json:"targets"`
	Transient bool       `json:"transient"`
	Retries   int        `json:"retries"`
	Seed      int64      `json:"seed"`
	FaultSeed int64      `json:"fault_seed"`
	Rows      []chaosRow `json:"rows"`
}

// chaosRow is one failure-rate point of the sweep.
type chaosRow struct {
	Rate             float64           `json:"rate"`
	Degraded         []string          `json:"degraded,omitempty"`
	SupervisedStages int               `json:"supervised_stages,omitempty"`
	Statements       int               `json:"statements,omitempty"`
	FusionPrecision  float64           `json:"fusion_precision,omitempty"`
	AugmentedTriples int               `json:"augmented_triples,omitempty"`
	Health           core.HealthReport `json:"health,omitempty"`
	// Failed carries the abort error when a mandatory stage was hit.
	Failed string `json:"failed,omitempty"`
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
