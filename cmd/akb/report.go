package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"akb/internal/core"
	"akb/internal/eval"
	"akb/internal/obs"
	"akb/internal/sched"
)

// cmdReport pretty-prints a telemetry RunReport written by `akb pipeline
// -report`: a per-stage table (duration, attempts, statements, throughput)
// derived from the stage spans, the embedded health report, and the
// metric snapshot.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	metricsOn := fs.Bool("metrics", true, "print the metric snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: akb report [flags] <runreport.json>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	rr, err := obs.ReadRunReport(f)
	if err != nil {
		return err
	}

	fmt.Printf("Run started %s, wall time %s, %d spans, %d metrics (schema v%d)\n",
		rr.Started.Format(time.RFC3339), time.Duration(rr.DurationNS).Round(time.Millisecond),
		len(rr.Spans), len(rr.Metrics), rr.SchemaVersion)
	if len(rr.Health) > 0 {
		var health core.HealthReport
		if err := json.Unmarshal(rr.Health, &health); err == nil {
			fmt.Printf("Health: %s\n", health)
		}
	}

	printStageTable(rr)

	if erows := executorRows(rr); len(erows) > 0 {
		fmt.Println("\nExecutor (mapreduce chunks; quantiles estimated from histogram buckets):")
		fmt.Print(eval.FormatTable([]string{"Histogram", "Count", "Mean", "~p50", "~p99"}, erows))
	}

	if *metricsOn && len(rr.Metrics) > 0 {
		fmt.Println("\nMetrics:")
		mrows := make([][]string, 0, len(rr.Metrics))
		for _, m := range rr.Metrics {
			switch m.Kind {
			case "histogram":
				mean := "-"
				if m.Count > 0 {
					mean = fmt.Sprintf("%.6f", m.Sum/float64(m.Count))
				}
				mrows = append(mrows, []string{m.Name, m.Kind,
					fmt.Sprintf("count=%d sum=%.6f mean=%s", m.Count, m.Sum, mean)})
			default:
				mrows = append(mrows, []string{m.Name, m.Kind, formatMetricValue(m.Value)})
			}
		}
		fmt.Print(eval.FormatTable([]string{"Metric", "Kind", "Value"}, mrows))
	}
	return nil
}

// printStageTable prints the CLI's one per-stage table: a row per stage
// span with its duration, attempts, health, statements and throughput.
func printStageTable(rr *obs.RunReport) {
	fmt.Println("\nPer-stage telemetry:")
	rows := make([][]string, 0)
	for _, span := range stageSpans(rr) {
		stmts, rate := "-", "-"
		if n, ok := stageStatements(rr, span); ok {
			stmts = strconv.Itoa(n)
			if secs := span.Duration().Seconds(); secs > 0 {
				rate = fmt.Sprintf("%.0f", float64(n)/secs)
			}
		}
		errCell := "-"
		if span.Error != "" {
			errCell = firstLine(span.Error)
		}
		rows = append(rows, []string{
			span.Name,
			span.Duration().Round(10 * time.Microsecond).String(),
			orDash(span.Attr("attempts")),
			orDash(span.Attr("health")),
			stmts,
			rate,
			errCell,
		})
	}
	fmt.Print(eval.FormatTable(
		[]string{"Stage", "Duration", "Attempts", "Health", "Statements", "Stmts/sec", "Error"}, rows))
}

// stageSpans returns the spans that represent supervised stages. In a
// serial run the stage spans are the roots; on the DAG scheduler
// (`pipeline -parallel`) they nest under one root "sched" span, which is
// unwrapped into its children so both layouts render the same table.
func stageSpans(rr *obs.RunReport) []obs.SpanReport {
	out := make([]obs.SpanReport, 0, len(rr.Spans))
	for _, span := range rr.RootSpans() {
		if span.Name == sched.SpanName {
			out = append(out, rr.Children(span.ID)...)
			continue
		}
		out = append(out, span)
	}
	return out
}

// stageStatements finds the stage's "statements" annotation: on the stage
// span itself or, since stage bodies annotate the attempt they ran under,
// on the latest child attempt span that carries one.
func stageStatements(rr *obs.RunReport, span obs.SpanReport) (int, bool) {
	candidates := []obs.SpanReport{span}
	candidates = append(candidates, rr.Children(span.ID)...)
	found, ok := 0, false
	for _, c := range candidates {
		if v := c.Attr("statements"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				found, ok = n, true
			}
		}
	}
	return found, ok
}

func formatMetricValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 6, 64)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// executorRows summarises the map-reduce executor's histograms: per-phase
// chunk latency plus the shared queue-wait distribution, with p50/p99
// estimated by linear interpolation inside the matching bucket. Queue
// wait is the scheduling signal: a p99 far above the chunk latency means
// chunks sat behind a saturated worker pool instead of executing.
func executorRows(rr *obs.RunReport) [][]string {
	rows := make([][]string, 0, 4)
	for _, m := range rr.Metrics {
		if m.Kind != "histogram" || !strings.HasPrefix(m.Name, "akb_mapreduce_") {
			continue
		}
		if !strings.HasSuffix(m.Name, "_task_seconds") && m.Name != "akb_mapreduce_queue_wait_seconds" {
			continue
		}
		if m.Count == 0 {
			continue
		}
		mean := time.Duration(m.Sum / float64(m.Count) * 1e9)
		p50 := quantileCell(m, 0.5)
		p99 := quantileCell(m, 0.99)
		rows = append(rows, []string{
			m.Name, strconv.FormatInt(m.Count, 10),
			mean.Round(time.Microsecond).String(), p50, p99,
		})
	}
	return rows
}

// quantileCell renders the q-th quantile estimated from per-bin bucket
// counts; observations past the last bound render as ">bound".
func quantileCell(m obs.Metric, q float64) string {
	target := q * float64(m.Count)
	cum := int64(0)
	lower := 0.0
	for _, b := range m.Buckets {
		cum += b.Count
		if float64(cum) >= target && b.Count > 0 {
			frac := (target - float64(cum-b.Count)) / float64(b.Count)
			secs := lower + frac*(b.LE-lower)
			return time.Duration(secs * 1e9).Round(100 * time.Nanosecond).String()
		}
		lower = b.LE
	}
	return ">" + time.Duration(lower*1e9).Round(100*time.Nanosecond).String()
}
