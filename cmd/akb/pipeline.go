package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"akb/internal/core"
	"akb/internal/eval"
	"akb/internal/experiments"
	"akb/internal/fusion"
	"akb/internal/obs"
	"akb/internal/rdf"
	"akb/internal/resilience"
	"akb/internal/store"
)

// faultFlags registers the shared fault-injection flags and returns a
// builder that assembles the plan after parsing.
func faultFlags(fs *flag.FlagSet) func() (*resilience.FaultPlan, error) {
	spec := fs.String("faults", "", "fault plan: 'stage=prob' entries, e.g. 'extract/textx=1,discover=0.5' or 'all=0.3'")
	fseed := fs.Int64("fault-seed", 1, "seed for deterministic fault decisions")
	transient := fs.Bool("fault-transient", false, "injected faults are transient (retries may recover)")
	latency := fs.Duration("fault-latency", 0, "latency injected before each faulted stage attempt")
	return func() (*resilience.FaultPlan, error) {
		if *spec == "" {
			return nil, nil
		}
		plan, err := resilience.ParseFaultPlan(*spec, *fseed)
		if err != nil {
			return nil, err
		}
		plan.SetTransient(*transient).SetLatency(*latency)
		return plan, nil
	}
}

func cmdPipeline(args []string) error {
	fs, seed := newFlagSet("pipeline")
	alignOn := fs.Bool("align", false, "enable pre-fusion normalisation (synonyms, misspellings, sub-attributes)")
	discover := fs.Bool("discover", false, "enable joint entity linking and discovery")
	temporal := fs.Bool("temporal", false, "enable temporal extraction and timeline fusion")
	lists := fs.Bool("lists", false, "enable multi-record list-page extraction")
	parallel := fs.Int("parallel", 0, "run up to N independent stages concurrently on the DAG scheduler (0 or 1: serial); results are identical at any value")
	scale := fs.Int("scale", 1, "multiply substrate sizes (entities, pages, docs, query stream) by this factor; the fused KB grows roughly linearly")
	reportPath := fs.String("report", "", "write a machine-readable telemetry RunReport (spans, metrics, health) to this JSON file")
	snapPath := fs.String("snapshot", "", "write an indexed store snapshot of the fused KB to this file (servable with `akb serve -snapshot`)")
	buildFaults := faultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := []core.Option{core.WithSeed(*seed)}
	if *scale > 1 {
		opts = append(opts, core.WithScale(*scale))
	}
	if *alignOn {
		opts = append(opts, core.WithAlignment())
	}
	if *discover {
		opts = append(opts, core.WithEntityDiscovery())
	}
	if *temporal {
		opts = append(opts, core.WithTemporal())
	}
	if *lists {
		opts = append(opts, core.WithListPages())
	}
	if *parallel != 0 {
		opts = append(opts, core.WithParallelism(*parallel))
	}
	plan, err := buildFaults()
	if err != nil {
		return err
	}
	if plan != nil {
		opts = append(opts, core.WithFaults(plan))
	}
	ctx := context.Background()
	var run *obs.Run
	if *reportPath != "" {
		run = obs.NewRun()
		ctx = obs.Into(ctx, run)
	}
	res, err := core.New(opts...).Run(ctx)
	if err != nil {
		return fmt.Errorf("pipeline aborted: %w", err)
	}
	rep := experiments.Summarize(res)
	if *snapPath != "" {
		st := store.NewSharded(res.Facts(), 0)
		if err := st.WriteBinarySnapshotFile(*snapPath); err != nil {
			return fmt.Errorf("write snapshot: %w", err)
		}
		defer fmt.Printf("\nSnapshot: %d facts, %d entities -> %s (serve with `akb serve -snapshot %s`)\n",
			st.Len(), st.EntityCount(), *snapPath, *snapPath)
	}
	if run != nil {
		rr, rerr := run.Report(rep.Health)
		if rerr != nil {
			return rerr
		}
		if werr := writeJSONFile(*reportPath, rr); werr != nil {
			return werr
		}
		defer fmt.Printf("\nRunReport: %d spans, %d metrics -> %s (render with `akb report %s`)\n",
			len(rr.Spans), len(rr.Metrics), *reportPath, *reportPath)
	}

	fmt.Println("Figure 1: knowledge extraction -> knowledge fusion -> KB augmentation")
	stageRows := make([][]string, 0, len(rep.Stages))
	for _, st := range rep.Stages {
		prec := "-"
		if st.Precision >= 0 {
			prec = fmt.Sprintf("%.3f", st.Precision)
		}
		stageRows = append(stageRows, []string{
			st.Stage, st.Detail, fmt.Sprintf("%d", st.Statements), prec, st.Health.String(),
		})
	}
	fmt.Print(eval.FormatTable([]string{"Stage", "Detail", "Statements", "Precision", "Health"}, stageRows))

	if plan != nil || !rep.Health.Healthy() {
		fmt.Printf("\nHealth: %s\n", rep.Health)
		if plan != nil {
			fmt.Printf("Fault plan: %s\n", plan)
		}
	}

	fmt.Println("\nAttribute-set growth per class (ontology augmentation):")
	growthRows := make([][]string, 0, len(rep.Growth))
	for _, g := range rep.Growth {
		growthRows = append(growthRows, []string{
			g.Class,
			fmt.Sprintf("%d", g.KBCombined),
			fmt.Sprintf("%d", g.WithQuery),
			fmt.Sprintf("%d", g.WithDOM),
			fmt.Sprintf("%d", g.WithText),
		})
	}
	fmt.Print(eval.FormatTable([]string{"Class", "KBs combined", "+query stream", "+DOM trees", "+Web text"}, growthRows))

	fmt.Printf("\nFused knowledge: %s\n", rep.Fusion)
	fmt.Printf("Augmented KB: %d accepted triples from %d raw statements\n",
		rep.AugmentedTriples, rep.TotalStatements)
	return nil
}

func cmdExport(args []string) error {
	fs, seed := newFlagSet("export")
	outPath := fs.String("o", "", "output file (default stdout)")
	quads := fs.Bool("quads", false, "export raw pre-fusion statements as provenance-preserving N-Quads instead of the fused KB")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := core.New(core.WithSeed(*seed)).Run(context.Background())
	if err != nil {
		return err
	}
	w := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *quads {
		if err := rdf.WriteNQuads(w, res.Statements); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "exported %d statements as N-Quads\n", len(res.Statements))
		return nil
	}
	triples := acceptedTriples(res.Fused())
	if err := rdf.WriteNTriples(w, triples); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exported %d triples\n", len(triples))
	return nil
}

// acceptedTriples returns the fused KB as RDF: one triple per accepted
// truth, built from the decisions' own terms (a store.Fact has dropped the
// term kind), in Triple.Compare order.
func acceptedTriples(fused *fusion.Result) []rdf.Triple {
	triples := make([]rdf.Triple, 0, fused.NumTruths())
	for i := range fused.Decisions {
		d := &fused.Decisions[i]
		for _, v := range d.Truths {
			triples = append(triples, rdf.T(d.Item.Subject, d.Item.Predicate, v))
		}
	}
	slices.SortFunc(triples, rdf.Triple.Compare)
	return triples
}

// degradedSummary compresses a degraded-stage list for table cells.
func degradedSummary(stages []string) string {
	if len(stages) == 0 {
		return "-"
	}
	return strings.Join(stages, " ")
}

// writeJSONFile serialises v through the shared obs JSON exporter, so
// every artifact the CLI writes is stable and diffable.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return obs.WriteJSON(f, v)
}
