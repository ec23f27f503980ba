package main

import (
	"fmt"
	"strconv"
	"strings"
	"text/tabwriter"

	"akb/internal/eval"
	"akb/internal/experiments"
	"akb/internal/extract/kbx"
	"akb/internal/extract/qsx"
)

// experiment is one row of the reproduction's experiment table: what
// `akb exp <name>` prints, and the section `akb exp all` prints for it.
type experiment struct {
	name   string   // akb exp <name>
	number string   // E-number in EXPERIMENTS.md
	label  string   // section heading under `akb exp all`, and the usage line
	title  string   // line above the table; a %d in it takes the flag's value
	header []string // column headers
	flag   intFlag  // the experiment's own flag beside -seed, if it has one
	rows   func(seed int64, n int) [][]string
	print  func(seed int64) error // instead of title/header/rows: the one experiment that is more than a table
}

type intFlag struct {
	name  string
	def   int
	usage string
}

var prf = []string{"Precision", "Recall", "F1"}

// experimentTable lists E1–E14 in EXPERIMENTS.md order (E8 and E12 are
// rows of `ablation` and a stage of `pipeline`). It is the only list of
// them: `akb exp`, its usage text and the tests all read it.
var experimentTable = []experiment{
	{
		name: "table1", number: "E1", label: "Table 1",
		title:  "Table 1: Statistics of Representative KBs (entities scaled 1000x down)",
		header: []string{"KB", "# Entities", "# Attributes"},
		rows: func(seed int64, _ int) [][]string {
			return cells(experiments.Table1(seed), func(r experiments.Table1Row) []string {
				return []string{r.KB, fmt.Sprintf("%d (paper: %g million, /1000)", r.Entities, float64(r.Entities)/1000), d(r.Attributes)}
			})
		},
	},
	{
		name: "table2", number: "E2", label: "Table 2",
		title:  "Table 2: Statistics of Five Representative Classes (# attributes)",
		header: []string{"Class", "DBpedia", "Extrac.(DBpedia)", "Freebase", "Extrac.(Freebase)", "Combine(FB&DBp)"},
		rows: func(seed int64, _ int) [][]string {
			return cells(experiments.Table2(seed), func(r kbx.Table2Row) []string {
				return []string{r.Class, d(r.DBpediaRaw), d(r.DBpediaExtracted), d(r.FreebaseRaw), d(r.FreebaseExtract), d(r.Combined)}
			})
		},
	},
	{
		name: "table3", number: "E3", label: "Table 3",
		title:  "Table 3: Query Stream Extraction Results (records scaled 1/%d)",
		header: []string{"Class", "Relevant Query Records", "Credible Attributes"},
		flag:   intFlag{"scale", 100, "divide the paper's 29,283,918 records by this factor"},
		rows: func(seed int64, scale int) [][]string {
			return cells(experiments.Table3(experiments.Table3Config{Seed: seed, Scale: scale}), func(r qsx.Table3Row) []string {
				return []string{r.Class, d(r.RelevantRecords), eval.NA(r.CredibleAttrs)}
			})
		},
	},
	{
		// The stage flags (-align, -faults, -snapshot, ...) live on
		// `akb pipeline`; as an experiment it is the default run.
		name: "pipeline", number: "E4", label: "Figure 1 pipeline",
		print: func(seed int64) error {
			return cmdPipeline([]string{"-seed", strconv.FormatInt(seed, 10)})
		},
	},
	{
		name: "domsweep", number: "E5", label: "Algorithm 1 sweep",
		title:  "Algorithm 1 (DOM-tree extraction) parameter sweep:",
		header: []string{"Parameter", "Value", "Discovered attrs", "Attr precision", "Stmt precision"},
		rows: func(seed int64, _ int) [][]string {
			return cells(experiments.DOMSweep(seed), func(r experiments.DOMSweepRow) []string {
				return []string{r.Param, r.Value, d(r.Discovered), f3(r.Precision), f3(r.StmtPrecision)}
			})
		},
	},
	{
		name: "fusion", number: "E6", label: "fusion comparison",
		title:  "Knowledge-fusion method comparison (baselines vs the paper's proposals):",
		header: append([]string{"Workload", "Method"}, prf...),
		rows: func(seed int64, _ int) [][]string {
			return cells(experiments.FusionComparison(seed), func(r experiments.FusionRow) []string {
				return []string{r.Workload, r.Method, f3(r.P), f3(r.R), f3(r.F1)}
			})
		},
	},
	{
		name: "ablation", number: "E7", label: "ablations",
		title:  "Design-choice ablations (paper §3.2 bullets):",
		header: append([]string{"Ablation", "Variant"}, prf...),
		rows: func(seed int64, _ int) [][]string {
			return cells(experiments.Ablations(seed), func(r experiments.AblationRow) []string {
				return []string{r.Ablation, r.Variant, f3(r.P), f3(r.R), f3(r.F1)}
			})
		},
	},
	{
		name: "discover", number: "E9", label: "entity discovery",
		title:  "New entity creation (joint entity linking and discovery) vs KB coverage:",
		header: []string{"Freebase coverage", "Uncovered on Web", "Discovered", "Linked mentions", "Precision", "Recall"},
		rows: func(seed int64, _ int) [][]string {
			return cells(experiments.EntityDiscovery(seed), func(r experiments.DiscoveryRow) []string {
				return []string{f1(r.Coverage), d(r.UncoveredOnWeb), d(r.Discovered), d(r.Linked), f3(r.Precision), f3(r.Recall)}
			})
		},
	},
	{
		name: "calibration", number: "E10", label: "belief calibration",
		title:  "Fused-belief calibration (FULL method): empirical precision per belief bucket",
		header: []string{"Belief bucket", "Pairs", "Mean belief", "Precision"},
		flag:   intFlag{"buckets", 10, "number of belief buckets"},
		rows: func(seed int64, buckets int) [][]string {
			return cells(experiments.Calibration(seed, buckets), func(r experiments.CalibrationRow) []string {
				return []string{fmt.Sprintf("[%.1f, %.1f)", r.Low, r.High), d(r.Count), f3(r.MeanBelief), f3(r.Precision)}
			})
		},
	},
	{
		name: "temporal", number: "E11", label: "temporal knowledge",
		title:  "Temporal knowledge extraction: year-level accuracy, raw vs timeline-fused",
		header: []string{"Corpus error rate", "Statements", "Timelines", "Raw accuracy", "Fused accuracy"},
		rows: func(seed int64, _ int) [][]string {
			return cells(experiments.Temporal(seed), func(r experiments.TemporalRow) []string {
				return []string{f1(r.ErrorRate), d(r.Statements), d(r.Timelines), f3(r.RawAccuracy), f3(r.FusedAccuracy)}
			})
		},
	},
	{
		name: "granularity", number: "E13", label: "provenance granularity",
		title:  "Provenance granularity (extractors-as-sources vs per-source provenance):",
		header: append([]string{"Granularity", "Method"}, prf...),
		rows: func(seed int64, _ int) [][]string {
			return cells(experiments.Granularity(seed), func(r experiments.GranularityRow) []string {
				return []string{r.Granularity, r.Method, f3(r.P), f3(r.R), f3(r.F1)}
			})
		},
	},
	{
		name: "scale", number: "E14", label: "scalability",
		title:  "Scalability: pipeline cost vs world size (wall-clock; FULL fusion on the map-reduce executor)",
		header: []string{"Entities/class", "Statements", "Items", "Extract ms", "Fuse ms", "kClaims/s"},
		rows: func(seed int64, _ int) [][]string {
			return cells(experiments.Scalability(seed), func(r experiments.ScaleRow) []string {
				return []string{d(r.Entities), d(r.Statements), d(r.Items), d(int(r.ExtractMS)), d(int(r.FuseMS)), f1(r.ThroughputKCps)}
			})
		},
	},
}

// cells maps an experiment's typed result rows to table cells.
func cells[R any](rs []R, row func(R) []string) [][]string {
	out := make([][]string, 0, len(rs))
	for _, r := range rs {
		out = append(out, row(r))
	}
	return out
}

// Cell formatters, named after the verbs they stand for: %d, %.1f, %.3f.
func d(n int) string      { return strconv.Itoa(n) }
func f1(x float64) string { return strconv.FormatFloat(x, 'f', 1, 64) }
func f3(x float64) string { return strconv.FormatFloat(x, 'f', 3, 64) }

// run prints the experiment for one seed; n is its flag's value.
func (e *experiment) run(seed int64, n int) error {
	if e.print != nil {
		return e.print(seed)
	}
	title := e.title
	if strings.Contains(title, "%d") {
		title = fmt.Sprintf(title, n)
	}
	fmt.Println(title)
	fmt.Print(eval.FormatTable(e.header, e.rows(seed, n)))
	return nil
}

// cmdExp runs one experiment of the table, or with `all` every one in
// order. `all` takes -seed only; an experiment's own flag belongs to
// `akb exp <that name>`.
func cmdExp(args []string) error {
	if len(args) == 0 {
		return usageError("usage: akb exp <name> [flags]\n\n" + experimentList())
	}
	name := args[0]
	var one *experiment
	for i := range experimentTable {
		if experimentTable[i].name == name {
			one = &experimentTable[i]
		}
	}
	if one == nil && name != "all" {
		return usageError(fmt.Sprintf("unknown experiment %q\n\n%s", name, experimentList()))
	}
	fs, seed := newFlagSet("exp " + name)
	var n int
	if one != nil && one.flag.name != "" {
		fs.IntVar(&n, one.flag.name, one.flag.def, one.flag.usage)
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if one != nil {
		return one.run(*seed, n)
	}
	for i, e := range experimentTable {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s ===\n", e.number, e.label)
		if err := e.run(*seed, e.flag.def); err != nil {
			return err
		}
	}
	return nil
}

// experimentList renders the table for usage messages.
func experimentList() string {
	var b strings.Builder
	b.WriteString("experiments (each takes -seed; table1-table3 print counts the generators fix\nby construction, so theirs is the same table for every seed):\n")
	w := tabwriter.NewWriter(&b, 0, 0, 1, ' ', 0)
	for _, e := range experimentTable {
		fmt.Fprintf(w, "  %s\t%s\t%s\n", e.name, e.number, e.label)
		if e.flag.name != "" {
			fmt.Fprintf(w, "\t\t  -%s: %s\n", e.flag.name, e.flag.usage)
		}
	}
	fmt.Fprintf(w, "  all\t\tevery experiment in order\n")
	w.Flush()
	return b.String()
}
