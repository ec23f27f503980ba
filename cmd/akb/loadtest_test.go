package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"akb/internal/obs"
	"akb/internal/serve"
	"akb/internal/store"
)

// loadtestStore builds a small sharded store with enough structure for
// target harvesting: several classes, entities and attributes.
func loadtestStore() *store.Sharded {
	var facts []store.Fact
	for c, class := range []string{"Book", "Film"} {
		for e := 0; e < 6; e++ {
			entity := fmt.Sprintf("%s %d", class, e)
			for a := 0; a < 3; a++ {
				facts = append(facts, store.Fact{
					Entity: entity, Class: class,
					Attr: fmt.Sprintf("attr%d", a), Value: fmt.Sprintf("v%d-%d", c, e),
					Confidence: 0.9,
				})
			}
		}
	}
	return store.NewSharded(facts, 4)
}

// TestLoadtestClosedLoop runs the full loadtest command against an
// in-process server and checks the report artifact it writes.
func TestLoadtestClosedLoop(t *testing.T) {
	s := serve.New(loadtestStore(), obs.NewRegistry(), serve.DefaultConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "load.json")
	err := cmdLoadtest([]string{
		"-url", ts.URL, "-duration", "300ms", "-warmup", "50ms",
		"-conns", "4", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Mode != "closed" {
		t.Errorf("mode = %q, want closed", rep.Mode)
	}
	if rep.Requests == 0 || rep.ThroughputRPS <= 0 {
		t.Errorf("no throughput recorded: %+v", rep)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Errorf("implausible latency summary: %+v", rep.Latency)
	}
	if rep.Status["200"] == 0 {
		t.Errorf("no 200s: %v", rep.Status)
	}
	if rep.Errors != 0 {
		t.Errorf("transport errors against local server: %d", rep.Errors)
	}
}

// TestLoadtestOpenLoop checks the rate-scheduled mode produces roughly
// the offered rate and records shed/dropped accounting fields.
func TestLoadtestOpenLoop(t *testing.T) {
	s := serve.New(loadtestStore(), obs.NewRegistry(), serve.DefaultConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "load.json")
	err := cmdLoadtest([]string{
		"-url", ts.URL, "-duration", "400ms", "-warmup", "0",
		"-rps", "100", "-conns", "4", "-mix", "2:1:1", "-out", out,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" || rep.OfferedRPS != 100 {
		t.Errorf("mode/offered = %q/%v", rep.Mode, rep.OfferedRPS)
	}
	// 400ms at 100 rps ≈ 40 requests; allow wide scheduling slop.
	if rep.Requests < 10 || rep.Requests > 80 {
		t.Errorf("open-loop requests = %d, want ≈40", rep.Requests)
	}
}

// TestParseMix pins the mix-string grammar.
func TestParseMix(t *testing.T) {
	if w, err := parseMix("2:1:0"); err != nil || w != [3]int{2, 1, 0} {
		t.Errorf("parseMix(2:1:0) = %v, %v", w, err)
	}
	for _, bad := range []string{"", "1:1", "1:1:1:1", "a:1:1", "-1:1:1", "0:0:0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) succeeded, want error", bad)
		}
	}
}
