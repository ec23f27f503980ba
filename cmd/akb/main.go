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
// Run `akb` with no arguments for the command list — it is printed from
// commands(), the one place commands are registered. The experiments
// E1–E14 of EXPERIMENTS.md are not commands: they are the rows of
// experimentTable (exp.go), run as `akb exp <name>` or `akb exp all`, and
// `akb exp` lists them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
)

type command struct {
	name  string
	brief string
	run   func(args []string) error
}

// usageError is a command line the CLI cannot act on: main prints it and
// exits 2, where a command that ran and failed exits 1.
type usageError string

func (e usageError) Error() string { return string(e) }

func commands() []command {
	return []command{
		{"exp", "run an experiment of EXPERIMENTS.md (E1-E14) by name, or all of them", cmdExp},
		{"pipeline", "Figure 1: full extraction+fusion pipeline", cmdPipeline},
		{"report", "pretty-print a telemetry RunReport JSON", cmdReport},
		{"chaos", "fault-injection sweep: degradation vs failure rate", cmdChaos},
		{"query", "query the fused KB: patterns and conjunctive datalog joins", cmdQuery},
		{"serve", "serve the fused KB over an HTTP query API", cmdServe},
		{"profile", "run the pipeline under CPU+heap profiling; writes .pprof files and a RunReport", cmdProfile},
		{"snapshot", "verify / inspect / convert store snapshot files", cmdSnapshot},
		{"loadtest", "drive a running akb serve with load; report latency percentiles and shed rate", cmdLoadtest},
		{"export", "export the augmented KB as N-Triples", cmdExport},
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches one command line and returns the process exit code.
func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	name := args[0]
	for _, c := range commands() {
		if c.name != name {
			continue
		}
		err := c.run(args[1:])
		if err == nil {
			return 0
		}
		fmt.Fprintf(os.Stderr, "akb %s: %v\n", name, err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "akb: unknown command %q\n\n", name)
	usage()
	return 2
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: akb <command> [flags]")
	fmt.Fprintln(os.Stderr, "\ncommands:")
	w := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	for _, c := range commands() {
		fmt.Fprintf(w, "  %s\t%s\n", c.name, c.brief)
	}
	w.Flush()
	fmt.Fprintln(os.Stderr, "\nThe experiments E1-E14 are not commands: `akb exp` lists them.")
}

// newFlagSet builds a flag set with the shared -seed flag.
func newFlagSet(name string) (*flag.FlagSet, *int64) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed for the synthetic substrates")
	return fs, seed
}
