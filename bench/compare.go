package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkSpec is BENCHMARK.json: the one place the bounds and directions
// live.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRecords reads a file of run records, one JSON object after another.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var rec record
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
}

// side is one commit's runs of one metric on one workload.
type side struct {
	values     []float64
	unresolved bool // a run marked its open-loop window unresolved
}

func collect(recs []record, workload, metric string, trace int) side {
	var s side
	for _, rec := range recs {
		if rec.Workload != workload || rec.Trace != trace {
			continue
		}
		if v, ok := rec.Metrics[metric]; ok {
			s.values = append(s.values, v)
			s.unresolved = s.unresolved || rec.OpenUnresolved
		}
	}
	return s
}

func (s side) String() string {
	q1, q2, q3 := quartiles(s.values)
	return fmt.Sprintf("%12.4f [%12.4f %12.4f] n=%-2d", q2, q1, q3, len(s.values))
}

// openLoopMetric names the per-layer numbers of the open loop: in a run
// whose generator ran late they describe the generator, and their rows say
// so.
var openLoopMetric = map[string]bool{
	"client.open_p50_us": true, "client.open_p99_us": true, "client.p999_us": true, "client.slo_miss_share": true,
}

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worse is how far side b's median is on the wrong side of side a's, as a
// share of a's median.
func worse(a, b side, lowerIsBetter bool) float64 {
	w := ratio(median(b.values)-median(a.values), median(a.values))
	if !lowerIsBetter {
		w = -w
	}
	return w
}

// judge compares side b (the change) with side a (the parent). The pair is
// unresolved when either side's inter-quartile spread is wider than the
// bound — the runs cannot tell a change of that size from noise — unless
// every run of one side beats every run of the other.
func judge(a, b side, lowerIsBetter bool, bound float64) string {
	separated := slices.Max(a.values) < slices.Min(b.values) || slices.Max(b.values) < slices.Min(a.values)
	switch {
	case max(spread(a.values), spread(b.values)) > bound && !separated:
		return verdictUnresolved
	case worse(a, b, lowerIsBetter) > bound:
		return verdictRegressed
	}
	return verdictOK
}

// compareFiles prints, for every workload and metric, each side's median
// and quartiles over its runs, the change against the parent's median, the
// metric's bound and a verdict; one workload and metric per row. It returns
// 0 when every end-to-end row is ok.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	var a, b []record
	if err == nil {
		a, err = readRecords(pathA)
	}
	if err == nil {
		b, err = readRecords(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "a = %s (parent), b = %s (change); change and bound are shares of a's median, + is worse\n", pathA, pathB)
	fmt.Fprintf(stdout, "%-11s %-26s %-5s %-46s %-46s %8s %6s  %s\n",
		"workload", "metric", "unit", "a: median [q1 q3]", "b: median [q1 q3]", "change", "bound", "verdict")
	bad := 0
	for _, w := range spec.Workloads {
		for trace, metrics := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			for _, m := range metrics {
				sa, sb := collect(a, w.Name, m.Name, trace), collect(b, w.Name, m.Name, trace)
				if len(sa.values) == 0 || len(sb.values) == 0 {
					continue
				}
				bound, verdict := "-", "-"
				if openLoopMetric[m.Name] && (sa.unresolved || sb.unresolved) {
					verdict = verdictUnresolved + " (generator ran late)"
				}
				if m.Bound != nil {
					verdict = judge(sa, sb, m.Better == "lower", *m.Bound)
					if verdict != verdictOK {
						bad++
					}
					bound = fmt.Sprintf("%.1f%%", 100**m.Bound)
				}
				fmt.Fprintf(stdout, "%-11s %-26s %-5s %s %s %+7.1f%% %6s  %s\n",
					w.Name, m.Name, m.Unit, sa, sb, 100*worse(sa, sb, m.Better == "lower"), bound, verdict)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d end-to-end rows are not ok\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "every end-to-end row is ok")
	return 0
}
