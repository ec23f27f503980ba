// Command akb drives the reproduction of "Generating Actionable Knowledge
// from Big Data" (SIGMOD'15 PhD Symposium): it regenerates every table of
// the paper over the synthetic substrates, runs the Figure-1 pipeline end to
// end, and executes the fusion comparisons and ablations described in
// DESIGN.md.
//
// Usage:
//
//	akb <command> [flags]
//
// Commands:
//
//	table1     Table 1 — statistics of representative KBs
//	table2     Table 2 — attribute extraction from existing KBs
//	table3     Table 3 — query-stream extraction (flag: -scale)
//	pipeline   Figure 1 — the full extraction+fusion pipeline (flag: -faults)
//	chaos      fault-injection sweep over the resilience supervisor
//	domsweep   Algorithm 1 behaviour sweep (sites, seeds, threshold)
//	fusion     fusion-method comparison on pipeline and copier workloads
//	ablation   design-choice ablations (hierarchy, correlation, confidence)
//	query      query the fused KB — single patterns or conjunctive datalog
//	           joins — against a snapshot, an inline pipeline run, or a
//	           live server (flags: -snapshot, -server, -explain)
//	serve      serve the fused KB over an HTTP query API (flag: -snapshot)
//	profile    run the pipeline under CPU+heap profiling; writes .pprof files
//	           plus a per-stage attribution table (flag: -out)
//	snapshot   verify / inspect / convert store snapshot files
//	           (subcommands: verify, info, convert)
//	loadtest   closed- or open-loop HTTP load generator against a running
//	           akb serve; writes latency percentiles, throughput and shed
//	           rate to BENCH_load.json
//	chaos-serve  drive the HTTP API under injected store faults and assert
//	             the robustness invariants (panic isolation, shedding,
//	             timeouts, reload-under-load)
//	export     run the pipeline and write the augmented KB as N-Triples
//	all        run every experiment in sequence
package main

import (
	"flag"
	"fmt"
	"os"
)

type command struct {
	name  string
	brief string
	run   func(args []string) error
}

func commands() []command {
	return []command{
		{"table1", "Table 1: statistics of representative KBs", cmdTable1},
		{"table2", "Table 2: attribute extraction from existing KBs", cmdTable2},
		{"table3", "Table 3: query-stream extraction results", cmdTable3},
		{"pipeline", "Figure 1: full extraction+fusion pipeline", cmdPipeline},
		{"report", "pretty-print a telemetry RunReport JSON", cmdReport},
		{"domsweep", "Algorithm 1 parameter sweep", cmdDOMSweep},
		{"fusion", "fusion method comparison", cmdFusion},
		{"ablation", "fusion design-choice ablations", cmdAblation},
		{"discover", "new entity creation vs KB coverage", cmdDiscover},
		{"calibration", "fused-belief calibration buckets", cmdCalibration},
		{"temporal", "temporal extraction and timeline fusion", cmdTemporal},
		{"granularity", "provenance granularity comparison", cmdGranularity},
		{"scale", "pipeline cost vs world size", cmdScale},
		{"chaos", "fault-injection sweep: degradation vs failure rate", cmdChaos},
		{"query", "query the fused KB: patterns and conjunctive datalog joins", cmdQuery},
		{"serve", "serve the fused KB over an HTTP query API", cmdServe},
		{"profile", "run the pipeline under CPU+heap profiling with per-stage attribution", cmdProfile},
		{"snapshot", "verify / inspect / convert store snapshot files", cmdSnapshot},
		{"loadtest", "drive a running akb serve with load; report latency percentiles and shed rate", cmdLoadtest},
		{"chaos-serve", "chaos harness for the serving path: inject faults, assert invariants", cmdChaosServe},
		{"export", "export the augmented KB as N-Triples", cmdExport},
		{"all", "run every experiment", cmdAll},
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	for _, c := range commands() {
		if c.name == name {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "akb %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "akb: unknown command %q\n\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: akb <command> [flags]")
	fmt.Fprintln(os.Stderr, "\ncommands:")
	for _, c := range commands() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", c.name, c.brief)
	}
}

// newFlagSet builds a flag set with the shared -seed flag.
func newFlagSet(name string) (*flag.FlagSet, *int64) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed for the synthetic substrates")
	return fs, seed
}

func cmdAll(args []string) error {
	fmt.Println("=== E1: Table 1 ===")
	if err := cmdTable1(args); err != nil {
		return err
	}
	fmt.Println("\n=== E2: Table 2 ===")
	if err := cmdTable2(args); err != nil {
		return err
	}
	fmt.Println("\n=== E3: Table 3 ===")
	if err := cmdTable3(args); err != nil {
		return err
	}
	fmt.Println("\n=== E4: Figure 1 pipeline ===")
	if err := cmdPipeline(args); err != nil {
		return err
	}
	fmt.Println("\n=== E5: Algorithm 1 sweep ===")
	if err := cmdDOMSweep(args); err != nil {
		return err
	}
	fmt.Println("\n=== E6: fusion comparison ===")
	if err := cmdFusion(args); err != nil {
		return err
	}
	fmt.Println("\n=== E7: ablations ===")
	if err := cmdAblation(args); err != nil {
		return err
	}
	fmt.Println("\n=== E9: entity discovery ===")
	if err := cmdDiscover(args); err != nil {
		return err
	}
	fmt.Println("\n=== E10: belief calibration ===")
	if err := cmdCalibration(args); err != nil {
		return err
	}
	fmt.Println("\n=== E11: temporal knowledge ===")
	if err := cmdTemporal(args); err != nil {
		return err
	}
	fmt.Println("\n=== E13: provenance granularity ===")
	if err := cmdGranularity(args); err != nil {
		return err
	}
	fmt.Println("\n=== E14: scalability ===")
	return cmdScale(args)
}
