package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// cmdLoadtest drives a running `akb serve` instance with a configurable
// request mix and reports latency percentiles, throughput and shed rate:
// a summary on stdout and, with -out, a machine-readable JSON report.
//
// Two generator modes share the same workers and bookkeeping:
//
//   - closed loop (-rps 0, the default): -conns workers each keep exactly
//     one request in flight, so offered load adapts to server latency.
//     This measures capacity: "how fast can it go?"
//   - open loop (-rps N): requests are released on a fixed schedule
//     regardless of completions, the way real traffic arrives. In-flight
//     requests are bounded; releases that find no free worker are counted
//     as client_dropped rather than blocking the schedule, so coordinated
//     omission does not flatter the percentiles. This measures behaviour
//     at a chosen load: "what does 500 rps feel like?"
//
// Targets are harvested from the server itself before the run: classes
// from /healthz, then one capped /v1/query per class to collect real
// entity and (entity, attr) pairs, so every generated request hits the
// live dataset rather than 404ing.
func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	baseURL := fs.String("url", "http://127.0.0.1:8080", "base URL of the akb serve instance")
	rps := fs.Float64("rps", 0, "open-loop request rate; 0 runs closed-loop at -conns concurrency")
	duration := fs.Duration("duration", 10*time.Second, "measurement window")
	conns := fs.Int("conns", 8, "closed-loop workers / open-loop in-flight bound")
	mix := fs.String("mix", "1:1:1", "entity:triples:query request weight mix")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request client timeout")
	seed := fs.Int64("seed", 1, "seed for target selection, making runs reproducible")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "untimed warmup before the measurement window")
	outPath := fs.String("out", "", "write the JSON report here (default: stdout summary only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *conns < 1 {
		return fmt.Errorf("-conns %d: need at least one worker", *conns)
	}
	weights, err := parseMix(*mix)
	if err != nil {
		return err
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *conns * 2,
			MaxIdleConnsPerHost: *conns * 2,
		},
	}

	if err := waitReady(client, *baseURL, 30*time.Second); err != nil {
		return err
	}
	targets, err := harvestTargets(client, *baseURL, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadtest: %d entity, %d triples, %d query targets harvested from %s\n",
		len(targets.entities), len(targets.triples), len(targets.queries), *baseURL)

	gen := newLoadGen(client, targets, weights, *seed)

	// Warmup primes connections and server caches outside the window.
	if *warmup > 0 {
		warmCtx, cancel := context.WithTimeout(context.Background(), *warmup)
		gen.run(warmCtx, *conns, 0)
		cancel()
		gen.reset()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	start := time.Now()
	gen.run(ctx, *conns, *rps)
	elapsed := time.Since(start)

	rep := gen.report(*baseURL, *mix, *rps, *conns, elapsed)
	printLoadReport(os.Stdout, rep)
	if *outPath != "" {
		if err := writeJSONFile(*outPath, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadtest: report -> %s\n", *outPath)
	}
	return nil
}

// parseMix parses "entity:triples:query" integer weights.
func parseMix(s string) ([3]int, error) {
	var w [3]int
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return w, fmt.Errorf("-mix %q: want three ':'-separated weights (entity:triples:query)", s)
	}
	total := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return w, fmt.Errorf("-mix %q: weight %q is not a non-negative integer", s, p)
		}
		w[i] = n
		total += n
	}
	if total == 0 {
		return w, fmt.Errorf("-mix %q: all weights are zero", s)
	}
	return w, nil
}

// waitReady polls /readyz until the server accepts traffic.
func waitReady(client *http.Client, base string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("loadtest: %s/readyz never became ready: %w", base, err)
			}
			return fmt.Errorf("loadtest: %s/readyz never became ready", base)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// loadTargets holds pre-built request URLs per route class.
type loadTargets struct {
	entities []string // /v1/entity/{id}
	triples  []string // /v1/triples/{entity}/{attr}
	queries  []string // /v1/query?...
}

// harvestTargets asks the server what it is serving and builds URL pools
// from real entities, attributes and classes.
func harvestTargets(client *http.Client, base string, rng *rand.Rand) (*loadTargets, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("loadtest: healthz: %w", err)
	}
	var health struct {
		Classes []string `json:"classes"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("loadtest: healthz: %w", err)
	}
	if len(health.Classes) == 0 {
		return nil, fmt.Errorf("loadtest: server reports no classes; nothing to query")
	}

	t := &loadTargets{}
	seenEntity := map[string]bool{}
	seenPair := map[string]bool{}
	for _, class := range health.Classes {
		qurl := base + "/v1/query?class=" + url.QueryEscape(class) + "&limit=200"
		resp, err := client.Get(qurl)
		if err != nil {
			return nil, fmt.Errorf("loadtest: harvest %s: %w", class, err)
		}
		var body struct {
			Facts []struct {
				Entity string `json:"entity"`
				Attr   string `json:"attr"`
			} `json:"facts"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("loadtest: harvest %s: %w", class, err)
		}
		for _, f := range body.Facts {
			if !seenEntity[f.Entity] {
				seenEntity[f.Entity] = true
				t.entities = append(t.entities, base+"/v1/entity/"+url.PathEscape(f.Entity))
			}
			pair := f.Entity + "\x00" + f.Attr
			if !seenPair[pair] {
				seenPair[pair] = true
				t.triples = append(t.triples,
					base+"/v1/triples/"+url.PathEscape(f.Entity)+"/"+url.PathEscape(f.Attr))
			}
			t.queries = append(t.queries,
				base+"/v1/query?entity="+url.QueryEscape(f.Entity)+"&attr="+url.QueryEscape(f.Attr))
		}
		// Class scans with a cap exercise the scatter-gather merge path.
		t.queries = append(t.queries, base+"/v1/query?class="+url.QueryEscape(class)+"&limit=50")
	}
	rng.Shuffle(len(t.queries), func(i, j int) { t.queries[i], t.queries[j] = t.queries[j], t.queries[i] })
	if len(t.entities) == 0 {
		return nil, fmt.Errorf("loadtest: harvested no entities")
	}
	return t, nil
}

// loadGen fans requests over workers and accumulates results. Latency
// samples are collected per worker and merged afterwards, so the hot
// path takes no locks.
type loadGen struct {
	client  *http.Client
	targets *loadTargets
	weights [3]int
	seed    int64

	mu        sync.Mutex
	latencies []time.Duration
	statuses  map[int]int64
	errors    int64
	dropped   int64
}

func newLoadGen(client *http.Client, targets *loadTargets, weights [3]int, seed int64) *loadGen {
	return &loadGen{client: client, targets: targets, weights: weights, seed: seed, statuses: map[int]int64{}}
}

func (g *loadGen) reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.latencies = g.latencies[:0]
	g.statuses = map[int]int64{}
	g.errors = 0
	g.dropped = 0
}

// pick chooses the next target URL for a worker-local rng.
func (g *loadGen) pick(rng *rand.Rand) string {
	total := g.weights[0] + g.weights[1] + g.weights[2]
	n := rng.Intn(total)
	var pool []string
	switch {
	case n < g.weights[0]:
		pool = g.targets.entities
	case n < g.weights[0]+g.weights[1]:
		pool = g.targets.triples
	default:
		pool = g.targets.queries
	}
	if len(pool) == 0 {
		pool = g.targets.entities
	}
	return pool[rng.Intn(len(pool))]
}

// worker state merged under the lock once per run, not per request.
type workerStats struct {
	latencies []time.Duration
	statuses  map[int]int64
	errors    int64
}

func (g *loadGen) do(url string, ws *workerStats) {
	t0 := time.Now()
	resp, err := g.client.Get(url)
	lat := time.Since(t0)
	if err != nil {
		ws.errors++
		return
	}
	// Drain so the connection is reusable; bodies are small.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ws.latencies = append(ws.latencies, lat)
	ws.statuses[resp.StatusCode]++
}

func (g *loadGen) merge(ws *workerStats) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.latencies = append(g.latencies, ws.latencies...)
	for code, n := range ws.statuses {
		g.statuses[code] += n
	}
	g.errors += ws.errors
}

// run drives the generator until ctx expires. rps == 0 is closed-loop;
// otherwise an open-loop ticker releases requests at the target rate into
// a bounded worker pool.
func (g *loadGen) run(ctx context.Context, conns int, rps float64) {
	if rps <= 0 {
		var wg sync.WaitGroup
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(g.seed + int64(w)*7919))
				ws := &workerStats{statuses: map[int]int64{}}
				for ctx.Err() == nil {
					g.do(g.pick(rng), ws)
				}
				g.merge(ws)
			}(w)
		}
		wg.Wait()
		return
	}

	// Open loop: a release schedule at 1/rps with a bounded in-flight
	// pool. A full pool means the client is saturated; the release is
	// recorded as dropped instead of delaying the schedule.
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	slots := make(chan struct{}, conns*8)
	var wg sync.WaitGroup
	var dropped int64
	rng := rand.New(rand.NewSource(g.seed))
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-ticker.C:
			url := g.pick(rng)
			select {
			case slots <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-slots }()
					ws := &workerStats{statuses: map[int]int64{}}
					g.do(url, ws)
					g.merge(ws)
				}()
			default:
				atomic.AddInt64(&dropped, 1)
			}
		}
	}
	wg.Wait()
	g.mu.Lock()
	g.dropped += atomic.LoadInt64(&dropped)
	g.mu.Unlock()
}

// LoadReport is the shape of the -out file. Latencies are milliseconds.
type LoadReport struct {
	Target        string           `json:"target"`
	Mode          string           `json:"mode"` // "closed" or "open"
	Mix           string           `json:"mix"`
	OfferedRPS    float64          `json:"offered_rps,omitempty"`
	Conns         int              `json:"conns"`
	DurationSec   float64          `json:"duration_sec"`
	Requests      int              `json:"requests"`
	ThroughputRPS float64          `json:"throughput_rps"`
	Latency       LatencySummary   `json:"latency_ms"`
	Status        map[string]int64 `json:"status"`
	Shed          ShedSummary      `json:"shed"`
	Errors        int64            `json:"transport_errors"`
	ClientDropped int64            `json:"client_dropped,omitempty"`
}

type LatencySummary struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// ShedSummary counts 429 responses: the server protecting itself is a
// first-class result of a load test, not an error.
type ShedSummary struct {
	Count int64   `json:"count"`
	Rate  float64 `json:"rate"`
}

func (g *loadGen) report(target, mix string, rps float64, conns int, elapsed time.Duration) LoadReport {
	g.mu.Lock()
	defer g.mu.Unlock()
	mode := "closed"
	if rps > 0 {
		mode = "open"
	}
	rep := LoadReport{
		Target: target, Mode: mode, Mix: mix, OfferedRPS: rps, Conns: conns,
		DurationSec:   elapsed.Seconds(),
		Requests:      len(g.latencies),
		Status:        map[string]int64{},
		Errors:        g.errors,
		ClientDropped: g.dropped,
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(len(g.latencies)) / elapsed.Seconds()
	}
	var shed int64
	for code, n := range g.statuses {
		rep.Status[strconv.Itoa(code)] = n
		if code == http.StatusTooManyRequests {
			shed += n
		}
	}
	rep.Shed = ShedSummary{Count: shed}
	if total := int64(len(g.latencies)); total > 0 {
		rep.Shed.Rate = float64(shed) / float64(total)
	}
	rep.Latency = summarizeLatency(g.latencies)
	return rep
}

func summarizeLatency(lats []time.Duration) LatencySummary {
	if len(lats) == 0 {
		return LatencySummary{}
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(p float64) float64 {
		idx := int(p * float64(len(sorted)-1))
		return ms(sorted[idx])
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return LatencySummary{
		Mean: ms(sum / time.Duration(len(sorted))),
		P50:  pct(0.50), P90: pct(0.90), P99: pct(0.99), P999: pct(0.999),
		Max: ms(sorted[len(sorted)-1]),
	}
}

func printLoadReport(w *os.File, rep LoadReport) {
	fmt.Fprintf(w, "loadtest %s (%s loop, mix %s, %d conns, %.1fs)\n",
		rep.Target, rep.Mode, rep.Mix, rep.Conns, rep.DurationSec)
	fmt.Fprintf(w, "  requests    %d (%.0f rps)\n", rep.Requests, rep.ThroughputRPS)
	fmt.Fprintf(w, "  latency ms  p50=%.2f p90=%.2f p99=%.2f p99.9=%.2f max=%.2f mean=%.2f\n",
		rep.Latency.P50, rep.Latency.P90, rep.Latency.P99, rep.Latency.P999, rep.Latency.Max, rep.Latency.Mean)
	codes := make([]string, 0, len(rep.Status))
	for c := range rep.Status {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	parts := make([]string, 0, len(codes))
	for _, c := range codes {
		parts = append(parts, fmt.Sprintf("%s:%d", c, rep.Status[c]))
	}
	fmt.Fprintf(w, "  status      %s\n", strings.Join(parts, " "))
	fmt.Fprintf(w, "  shed        %d (rate %.4f)\n", rep.Shed.Count, rep.Shed.Rate)
	if rep.Errors > 0 || rep.ClientDropped > 0 {
		fmt.Fprintf(w, "  errors      transport=%d client_dropped=%d\n", rep.Errors, rep.ClientDropped)
	}
}
