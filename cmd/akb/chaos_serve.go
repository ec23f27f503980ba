package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"akb/internal/core"
	"akb/internal/eval"
	"akb/internal/obs"
	"akb/internal/resilience"
	"akb/internal/serve"
	"akb/internal/store"
)

// cmdChaosServe is the serve-side chaos harness: it starts a real server
// over a real store, injects deterministic faults into the store reads
// (panics on lookups, latency spikes past the request timeout on the
// triples route), hammers the HTTP API from concurrent workers while
// hot-reloading the snapshot under load, then turns injection off and
// proves the server returns to fully clean service.
//
// The invariants it asserts are the robustness contract of internal/serve:
//
//	alive      the process survives every injected panic
//	panics     injected panics were absorbed into JSON 500s (counter > 0)
//	timeouts   latency spikes hit the request timeout as 503s, not hangs
//	shedding   overload sheds 429 with a numeric Retry-After
//	reload     snapshot reloads under load swap atomically; none tears
//	clean      zero 5xx once fault injection stops; /healthz serving
//	ids        every response — 200s, 429s, 500s, 503s — carries a
//	           non-empty X-Request-ID, unique across the whole run
//
// Exit status is non-zero when any invariant fails, so CI can gate on it.
func cmdChaosServe(args []string) error {
	fs, seed := newFlagSet("chaos-serve")
	snapPath := fs.String("snapshot", "", "serve this snapshot (enables reload-under-load); default: run the pipeline inline")
	requests := fs.Int("requests", 400, "requests per phase (faulted, then clean)")
	workers := fs.Int("workers", 8, "concurrent client workers")
	failProb := fs.Float64("fail-prob", 0.25, "per-read probability of an injected store panic")
	fseed := fs.Int64("fault-seed", 1, "seed for deterministic fault decisions")
	maxInflight := fs.Int("max-inflight", 2, "server in-flight bound (small, so shedding is observable)")
	timeout := fs.Duration("timeout", 150*time.Millisecond, "server per-request timeout; the triples route gets 2x this as injected latency")
	reloads := fs.Int("reloads", 10, "hot reloads fired during the faulted phase (snapshot mode only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *failProb < 0 || *failProb > 1 {
		return fmt.Errorf("-fail-prob %v outside [0,1]", *failProb)
	}
	if *workers < 1 || *requests < *workers {
		return fmt.Errorf("need at least one request per worker (requests=%d workers=%d)", *requests, *workers)
	}

	// --- the store under test ---------------------------------------
	var st *store.Sharded
	cfg := serve.DefaultConfig()
	if *snapPath != "" {
		var err error
		if st, _, err = openSnapshot(*snapPath, 1); err != nil {
			return err
		}
		cfg.Reloader = snapshotReloader(*snapPath, 1)
	} else {
		fmt.Fprintf(os.Stderr, "no -snapshot given; running pipeline (seed %d) ...\n", *seed)
		res, err := core.New(core.WithSeed(*seed)).Run(context.Background())
		if err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		st = store.New(store.ResultFacts(res))
	}
	if st.Len() == 0 {
		return fmt.Errorf("store is empty; nothing to chaos-test")
	}

	// --- fault plan: panics on entity/lookup, a latency spike past the
	// request timeout on triples so timeouts demonstrably fire ---------
	plan := &resilience.FaultPlan{
		Seed: *fseed,
		Stages: map[string]resilience.StageFault{
			store.ChaosStageLookup:  {FailProb: *failProb, Transient: true},
			store.ChaosStageEntity:  {FailProb: *failProb, Transient: true},
			store.ChaosStageTriples: {Latency: 2 * *timeout},
		},
	}
	ctl := store.NewChaosController(plan)
	cfg.MaxInFlight = *maxInflight
	cfg.RequestTimeout = *timeout
	cfg.WrapQuerier = ctl.Wrap
	reg := obs.NewRegistry()
	srv := serve.New(st, reg, cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	f := st.Facts()[0]
	targets := []string{
		"/v1/query?entity=" + url.QueryEscape(f.Entity),
		"/v1/query?attr=" + url.QueryEscape(f.Attr),
		"/v1/entity/" + url.PathEscape(f.Entity),
		"/v1/triples/" + url.PathEscape(f.Entity) + "/" + url.PathEscape(f.Attr),
	}
	fmt.Fprintf(os.Stderr, "chaos-serve: %d facts behind %s, plan %s, %d workers x 2 phases\n",
		st.Len(), base, plan, *workers)

	// --- phase 1: faults on, reloads under load ----------------------
	reloadOK := 0
	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		if cfg.Reloader == nil {
			return
		}
		for i := 0; i < *reloads; i++ {
			if _, err := srv.Reload(); err == nil {
				reloadOK++
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	ids := newIDTracker()
	faulted := hammer(base, targets, *requests, *workers, *timeout/4, ids)
	<-reloadDone
	panicsAfterFaults := reg.Counter("akb_serve_panics").Value()

	// --- phase 2: faults off; service must be spotless ---------------
	ctl.SetEnabled(false)
	// A request answered 503 at its deadline keeps its in-flight slot until
	// its handler returns — here, until the injected sleep ends. The clean
	// phase starts once those stragglers are gone, or it would be shed by
	// the faulted phase's leftovers.
	for wait := time.Now(); reg.Gauge("akb_serve_inflight").Value() != 0 && time.Since(wait) < 10*time.Second; {
		time.Sleep(time.Millisecond)
	}
	clean := hammer(base, targets, *requests, *workers, *timeout/4, ids)

	status, health := probeHealth(base)

	// --- invariants ---------------------------------------------------
	type invariant struct {
		name, detail string
		ok           bool
	}
	checks := []invariant{
		{"alive", fmt.Sprintf("process and listener up after %d injected panics", panicsAfterFaults),
			status == http.StatusOK},
		{"panics absorbed", fmt.Sprintf("akb_serve_panics=%d > 0 and every faulted 5xx was an enveloped 500", panicsAfterFaults),
			panicsAfterFaults > 0 && faulted.counts[500] > 0 && faulted.badEnvelope == 0},
		{"timeouts fire", fmt.Sprintf("latency spikes became %d x 503, not hangs", faulted.counts[503]),
			faulted.counts[503] > 0},
		{"shedding sheds", fmt.Sprintf("overload shed %d x 429, Retry-After numeric on all sampled", faulted.counts[429]),
			faulted.counts[429] > 0 && faulted.badRetryAfter == 0},
		{"no torn reads", fmt.Sprintf("%d OK bodies parsed, 0 empty/torn under %d reloads", faulted.counts[200]+clean.counts[200], reloadOK),
			faulted.tornBodies == 0 && clean.tornBodies == 0},
		{"clean after chaos", fmt.Sprintf("post-fault phase: %d requests, %d x 5xx, health %q", clean.total(), clean.serverErrors(), health),
			clean.serverErrors() == 0 && health == "serving"},
	}
	unique, missingIDs, dupIDs := ids.stats()
	checks = append(checks, invariant{
		"request ids", fmt.Sprintf("%d unique X-Request-ID across both phases, %d missing, %d duplicated (panics, sheds and timeouts included)", unique, missingIDs, dupIDs),
		unique > 0 && missingIDs == 0 && dupIDs == 0})
	if cfg.Reloader != nil {
		checks = append(checks, invariant{
			"reload under load", fmt.Sprintf("%d/%d hot reloads swapped in while hammered", reloadOK, *reloads),
			reloadOK > 0})
	}

	rows := make([][]string, 0, len(checks))
	failed := 0
	for _, c := range checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
			failed++
		}
		rows = append(rows, []string{c.name, verdict, c.detail})
	}
	fmt.Println("\nStatus codes (faulted phase → clean phase):")
	fmt.Print(statusTable(faulted, clean))
	fmt.Println("\nInvariants:")
	fmt.Print(eval.FormatTable([]string{"Invariant", "Verdict", "Detail"}, rows))

	cancel()
	<-serveDone
	if failed > 0 {
		return fmt.Errorf("%d of %d invariants failed", failed, len(checks))
	}
	fmt.Println("\nall invariants held: the serving path survives panics, latency spikes, overload and hot reloads")
	return nil
}

// idTracker enforces the request-identity contract across the whole
// chaos run (both phases): every response must carry a non-empty
// X-Request-ID and no ID may repeat.
type idTracker struct {
	mu      sync.Mutex
	seen    map[string]bool
	missing int // responses without an ID
	dups    int // IDs seen more than once
}

func newIDTracker() *idTracker { return &idTracker{seen: make(map[string]bool)} }

func (it *idTracker) record(id string) {
	it.mu.Lock()
	defer it.mu.Unlock()
	switch {
	case id == "":
		it.missing++
	case it.seen[id]:
		it.dups++
	default:
		it.seen[id] = true
	}
}

func (it *idTracker) stats() (unique, missing, dups int) {
	it.mu.Lock()
	defer it.mu.Unlock()
	return len(it.seen), it.missing, it.dups
}

// tally aggregates one hammering phase.
type tally struct {
	mu            sync.Mutex
	counts        map[int]int
	badEnvelope   int // 4xx/5xx whose body is not the JSON error envelope
	badRetryAfter int // 429s without a numeric Retry-After
	tornBodies    int // 200s whose body fails to parse or has zero facts where facts are guaranteed
	transportErrs int
}

func (t *tally) total() int {
	n := 0
	for _, c := range t.counts {
		n += c
	}
	return n + t.transportErrs
}

func (t *tally) serverErrors() int {
	n := 0
	for code, c := range t.counts {
		if code >= 500 {
			n += c
		}
	}
	return n
}

// hammer drives requests/workers concurrent clients over the target
// routes and classifies every response. A worker that is shed backs off
// before its next request, as a client told Retry-After would: a timed-out
// request holds its in-flight slot until its handler returns, and workers
// that spent their whole budget on instant 429s behind two such stragglers
// would never reach the faults the phase is there to show. The shared ids
// tracker spans phases so uniqueness is asserted across the whole run.
func hammer(base string, targets []string, requests, workers int, backoff time.Duration, ids *idTracker) *tally {
	res := &tally{counts: map[int]int{}}
	client := &http.Client{Timeout: 5 * time.Second}
	per := requests / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				target := targets[(w+i)%len(targets)]
				resp, err := client.Get(base + target)
				if err != nil {
					res.mu.Lock()
					res.transportErrs++
					res.mu.Unlock()
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				ids.record(resp.Header.Get(serve.RequestIDHeader))
				classify(res, resp, raw)
				if resp.StatusCode == http.StatusTooManyRequests {
					time.Sleep(backoff)
				}
			}
		}(w)
	}
	wg.Wait()
	return res
}

func classify(t *tally, resp *http.Response, raw []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[resp.StatusCode]++
	switch {
	case resp.StatusCode == http.StatusOK:
		var body map[string]any
		if err := json.Unmarshal(raw, &body); err != nil {
			t.tornBodies++
		}
	case resp.StatusCode >= 400:
		var envelope struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Error == "" || envelope.Status != resp.StatusCode {
			t.badEnvelope++
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
				t.badRetryAfter++
			}
		}
	}
}

func probeHealth(base string) (int, string) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.Status
}

func statusTable(faulted, clean *tally) string {
	codes := map[int]bool{}
	for c := range faulted.counts {
		codes[c] = true
	}
	for c := range clean.counts {
		codes[c] = true
	}
	sorted := make([]int, 0, len(codes))
	for c := range codes {
		sorted = append(sorted, c)
	}
	sort.Ints(sorted)
	rows := make([][]string, 0, len(sorted)+1)
	for _, c := range sorted {
		rows = append(rows, []string{
			strconv.Itoa(c), http.StatusText(c),
			strconv.Itoa(faulted.counts[c]), strconv.Itoa(clean.counts[c]),
		})
	}
	if faulted.transportErrs+clean.transportErrs > 0 {
		rows = append(rows, []string{"-", "transport error",
			strconv.Itoa(faulted.transportErrs), strconv.Itoa(clean.transportErrs)})
	}
	return eval.FormatTable([]string{"Code", "Meaning", "Faulted", "Clean"}, rows)
}
