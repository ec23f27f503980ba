package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A backticked span that starts with a source directory of the repo.
	docPath = regexp.MustCompile("`((?:internal|cmd|bench|examples)/[^`\\s]*)")
	// `akb <command>` as a shell would see it: after a space, a slash or
	// the start of the line.
	docCommand = regexp.MustCompile(`(?:^|[\s/])akb\s+([a-z][a-z0-9-]*)(?:\s+([a-z][a-z0-9-]*))?`)
	// A backticked span, and the parts of metricShaped's test.
	docTick       = regexp.MustCompile("`([^`]+)`")
	docMetric     = regexp.MustCompile(`^(?:([a-z]+)\.)?[a-z0-9]+(?:_[a-z0-9]+)*$`)
	docMetricUnit = regexp.MustCompile(`_(?:s|ms|us|mb|share)$`)
	docFileName   = regexp.MustCompile(`\.(?:go|json|jsonl|md|pprof|test|akb)$`)
)

// benchmarkMetrics reads the names BENCHMARK.json declares, end to end and
// per layer, and the layers the per-layer ones are prefixed with.
func benchmarkMetrics(t *testing.T, root string) (names, layers map[string]bool) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names, layers = map[string]bool{}, map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		names[m.Name] = true
		if layer, _, ok := strings.Cut(m.Name, "."); ok {
			layers[layer] = true
		}
	}
	return names, layers
}

// metricShaped reports whether a backticked span has the shape of one of
// BENCHMARK.json's metric names: lower-case words joined by underscores that
// end in a unit (`build_s`, `req_p50_us`), or `layer.name` (`fusion.ms`,
// `store.facts`) where layer is one of the benchmark's. A file name
// (`trace.json`) is not one.
func metricShaped(span string, layers map[string]bool) bool {
	m := docMetric.FindStringSubmatch(span)
	if m == nil || docFileName.MatchString(span) {
		return false
	}
	if m[1] != "" {
		return layers[m[1]]
	}
	return docMetricUnit.MatchString(span)
}

// TestDocsNameLiveCode keeps the documents from naming code that is gone:
// every backticked internal/, cmd/, bench/ or examples/ path in them
// exists, every `akb <word>` inside a fenced block is a registered
// command, and every `akb exp <word>` a row of experimentTable. PERF.md, the
// one place numbers are stated, names only metrics the benchmark reports:
// every backticked span in it with the shape of a metric name is one of
// BENCHMARK.json's.
func TestDocsNameLiveCode(t *testing.T) {
	root := filepath.Join("..", "..")
	metrics, layers := benchmarkMetrics(t, root)
	cmds := map[string]bool{}
	for _, c := range commands() {
		cmds[c.name] = true
	}
	exps := map[string]bool{"all": true}
	for _, e := range experimentTable {
		exps[e.name] = true
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "API.md", "PERF.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for n, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				for _, m := range docCommand.FindAllStringSubmatch(line, -1) {
					switch {
					case !cmds[m[1]]:
						t.Errorf("%s:%d: `akb %s` is not a command", doc, n+1, m[1])
					case m[1] == "exp" && m[2] != "" && !exps[m[2]]:
						t.Errorf("%s:%d: `akb exp %s` is not an experiment", doc, n+1, m[2])
					}
				}
				continue
			}
			if doc == "PERF.md" {
				for _, m := range docTick.FindAllStringSubmatch(line, -1) {
					if metricShaped(m[1], layers) && !metrics[m[1]] {
						t.Errorf("%s:%d: `%s` is not a metric of BENCHMARK.json", doc, n+1, m[1])
					}
				}
			}
			for _, m := range docPath.FindAllStringSubmatch(line, -1) {
				// "internal/serve/encode.go:12" and "cmd/akb/exp.go," name the file.
				path := strings.TrimRight(strings.SplitN(m[1], ":", 2)[0], ".,;)")
				if hits, _ := filepath.Glob(filepath.Join(root, path)); len(hits) == 0 {
					t.Errorf("%s:%d: `%s` does not exist", doc, n+1, path)
				}
			}
		}
	}
}
