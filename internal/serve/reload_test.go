package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"akb/internal/obs"
	"akb/internal/resilience"
	"akb/internal/store"
)

// markerStore builds a store whose every fact carries the marker as its
// value, so any response body reveals which store it was answered from.
func markerStore(marker string, n int) *store.Sharded {
	facts := make([]store.Fact, 0, n)
	for i := 0; i < n; i++ {
		facts = append(facts, store.Fact{
			Entity: fmt.Sprintf("Entity %d", i), Class: "Thing",
			Attr: "marker", Value: marker, Confidence: 1,
		})
	}
	return store.New(facts)
}

func post(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("%s: bad JSON %q: %v", url, raw, err)
	}
	return resp.StatusCode, body
}

// TestErrorEnvelopeUniform asserts every error status the API can emit
// uses the same {"error", "status"} envelope, and that the 429 carries a
// numeric Retry-After.
func TestErrorEnvelopeUniform(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	s, ts := testServer(t, cfg)

	cases := []struct {
		name, url string
		want      int
	}{
		{"bad request", "/v1/query?claas=Film", http.StatusBadRequest},
		{"missing entity", "/v1/entity/Nobody", http.StatusNotFound},
		{"unknown route", "/v2/everything", http.StatusNotFound},
		{"reload unconfigured", "POST /v1/admin/reload", http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body map[string]any
			if method, url, ok := func(u string) (string, string, bool) {
				if len(u) > 5 && u[:5] == "POST " {
					return "POST", u[5:], true
				}
				return "", u, false
			}(tc.url); ok && method == "POST" {
				status, body = post(t, ts.URL+url)
			} else {
				status, body = get(t, ts.URL+tc.url)
			}
			if status != tc.want {
				t.Fatalf("status = %d, want %d (%v)", status, tc.want, body)
			}
			if body["error"] == "" || body["error"] == nil {
				t.Errorf("missing error field: %v", body)
			}
			if body["status"] != float64(tc.want) {
				t.Errorf("envelope status = %v, want %d", body["status"], tc.want)
			}
		})
	}

	// The shed 429 uses the same envelope and a numeric Retry-After.
	s.inflight <- struct{}{}
	defer func() { <-s.inflight }()
	resp, err := http.Get(ts.URL + "/v1/query?class=Film")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
		t.Errorf("Retry-After %q is not numeric", resp.Header.Get("Retry-After"))
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["error"] == nil || body["status"] != float64(429) {
		t.Errorf("429 envelope = %v", body)
	}
}

// TestPanicIsolation injects a panicking querier via the chaos seam and
// asserts the server answers 500 (enveloped), counts the panic, and
// keeps serving afterwards — the process-killing panic is gone.
func TestPanicIsolation(t *testing.T) {
	ctl := store.NewChaosController(&resilience.FaultPlan{
		Seed:    3,
		Default: resilience.StageFault{FailProb: 1, Transient: true},
	})
	cfg := DefaultConfig()
	cfg.WrapQuerier = ctl.Wrap
	s := New(testStore(), obs.NewRegistry(), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := get(t, ts.URL+"/v1/query?class=Film")
	if status != http.StatusInternalServerError {
		t.Fatalf("faulted query: status = %d body = %v", status, body)
	}
	if body["error"] == nil || body["status"] != float64(500) {
		t.Errorf("500 envelope = %v", body)
	}
	if n := s.reg.Counter("akb_serve_panics").Value(); n != 1 {
		t.Errorf("akb_serve_panics = %d, want 1", n)
	}
	// Health stays live and ready: a handler panic is not a lifecycle event.
	if status, hb := get(t, ts.URL+"/healthz"); status != http.StatusOK || hb["status"] != "serving" {
		t.Errorf("healthz after panic: %d %v", status, hb)
	}
	// Chaos off → clean service, no new panics.
	ctl.SetEnabled(false)
	status, _ = get(t, ts.URL+"/v1/query?class=Film")
	if status != http.StatusOK {
		t.Errorf("recovered query: status = %d", status)
	}
	if n := s.reg.Counter("akb_serve_panics").Value(); n != 1 {
		t.Errorf("akb_serve_panics grew after chaos disabled: %d", n)
	}
}

// TestReloadSwapsGeneration exercises the happy reload path through the
// admin endpoint: new generation, new facts, invalidated cache, healthz
// back to serving.
func TestReloadSwapsGeneration(t *testing.T) {
	next := markerStore("gen2", 3)
	cfg := DefaultConfig()
	cfg.Reloader = func() (store.Querier, error) { return next, nil }
	s := New(markerStore("gen1", 3), obs.NewRegistry(), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Prime the cache on generation 1.
	if _, body := get(t, ts.URL+"/v1/query?attr=marker"); body["generation"] != float64(1) {
		t.Fatalf("first generation: %v", body)
	}
	get(t, ts.URL+"/v1/query?attr=marker")

	status, body := post(t, ts.URL+"/v1/admin/reload")
	if status != http.StatusOK || body["status"] != "reloaded" || body["generation"] != float64(2) {
		t.Fatalf("reload: %d %v", status, body)
	}
	if n := s.reg.Counter("akb_serve_reloads_total").Value(); n != 1 {
		t.Errorf("reloads counter = %d", n)
	}

	// The same query must now come from generation 2 — a stale cached
	// gen-1 body here would mean the cache survived the swap.
	_, body = get(t, ts.URL+"/v1/query?attr=marker")
	if body["generation"] != float64(2) {
		t.Errorf("query after reload still on old generation: %v", body)
	}
	facts := body["facts"].([]any)
	if v := facts[0].(map[string]any)["value"]; v != "gen2" {
		t.Errorf("stale facts after reload: %v", v)
	}
}

// TestReloadFailureKeepsServing covers the degraded path: a failing or
// empty reload leaves the old generation serving, flips healthz to
// degraded with the error, and a later good reload clears it.
func TestReloadFailureKeepsServing(t *testing.T) {
	var fail atomic.Bool
	var empty atomic.Bool
	good := markerStore("gen2", 3)
	cfg := DefaultConfig()
	cfg.Reloader = func() (store.Querier, error) {
		if fail.Load() {
			return nil, errors.New("disk on fire")
		}
		if empty.Load() {
			return store.New(nil), nil
		}
		return good, nil
	}
	s := New(markerStore("gen1", 3), obs.NewRegistry(), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fail.Store(true)
	status, body := post(t, ts.URL+"/v1/admin/reload")
	if status != http.StatusInternalServerError || body["status"] != float64(500) {
		t.Fatalf("failed reload: %d %v", status, body)
	}
	if n := s.reg.Counter("akb_serve_reload_failures_total").Value(); n != 1 {
		t.Errorf("reload failure counter = %d", n)
	}

	// Old generation still serves; health degraded but ready.
	_, qbody := get(t, ts.URL+"/v1/query?attr=marker")
	if qbody["generation"] != float64(1) {
		t.Errorf("generation after failed reload: %v", qbody["generation"])
	}
	status, hb := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || hb["status"] != "degraded" || hb["last_reload_error"] == nil {
		t.Errorf("healthz after failed reload: %d %v", status, hb)
	}
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Errorf("degraded server must stay ready, readyz = %d", status)
	}

	// An empty store is rejected the same way.
	fail.Store(false)
	empty.Store(true)
	if status, _ := post(t, ts.URL+"/v1/admin/reload"); status != http.StatusInternalServerError {
		t.Errorf("empty reload accepted: %d", status)
	}

	// A good reload heals the state machine.
	empty.Store(false)
	if status, _ := post(t, ts.URL+"/v1/admin/reload"); status != http.StatusOK {
		t.Fatalf("healing reload failed: %d", status)
	}
	_, hb = get(t, ts.URL+"/healthz")
	if hb["status"] != "serving" || hb["last_reload_error"] != nil {
		t.Errorf("healthz after healing reload: %v", hb)
	}
}

// TestStartingState covers the nil-store boot: liveness 200/"starting",
// readiness 503, query routes 503 with the envelope — then the first
// successful reload flips everything to serving.
func TestStartingState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reloader = func() (store.Querier, error) { return markerStore("gen1", 2), nil }
	s := New(nil, obs.NewRegistry(), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || body["status"] != "starting" || body["ready"] != false {
		t.Fatalf("healthz while starting: %d %v", status, body)
	}
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("readyz while starting = %d, want 503", status)
	}
	status, body = get(t, ts.URL+"/v1/query?class=Thing")
	if status != http.StatusServiceUnavailable || body["status"] != float64(503) {
		t.Errorf("query while starting: %d %v", status, body)
	}
	// The POST route is a data route too: the same 503 envelope, no
	// panic-500.
	status, body = postDatalog(t, ts.URL, `{"query": "?e ?a ?v"}`)
	if status != http.StatusServiceUnavailable || body["status"] != float64(503) {
		t.Errorf("datalog while starting: %d %v", status, body)
	}

	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if s.Health() != HealthServing {
		t.Errorf("health after first reload = %v", s.Health())
	}
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Errorf("readyz after first reload = %d", status)
	}
}

// TestHotReloadUnderLoad hammers /v1/query from many goroutines while
// snapshots swap in a loop. Under -race this validates the atomic
// generation handle; the assertions validate torn-read freedom: every
// response's facts all belong to one store generation, and the reported
// generation number matches the X-Akb-Generation header.
func TestHotReloadUnderLoad(t *testing.T) {
	const swaps = 40
	gen := atomic.Int64{}
	cfg := DefaultConfig()
	cfg.Reloader = func() (store.Querier, error) {
		// Generation g serves marker "m<g>". The reloader is called with
		// gen already advanced by the swapping goroutine.
		return markerStore(fmt.Sprintf("m%d", gen.Load()), 4), nil
	}
	gen.Store(1)
	s := New(markerStore("m1", 4), obs.NewRegistry(), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/query?attr=marker")
				if err != nil {
					t.Error(err)
					return
				}
				hdrGen := resp.Header.Get("X-Akb-Generation")
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %s", resp.StatusCode, raw)
					return
				}
				var body struct {
					Generation uint64 `json:"generation"`
					Facts      []struct {
						Value string `json:"value"`
					} `json:"facts"`
				}
				if err := json.Unmarshal(raw, &body); err != nil {
					t.Errorf("bad body %q: %v", raw, err)
					return
				}
				if len(body.Facts) == 0 {
					t.Error("empty response mid-swap")
					return
				}
				// Internal consistency: one generation end to end.
				want := fmt.Sprintf("m%d", body.Generation)
				for _, f := range body.Facts {
					if f.Value != want {
						t.Errorf("torn read: body generation %d carries fact %q", body.Generation, f.Value)
						return
					}
				}
				if hdrGen != strconv.FormatUint(body.Generation, 10) {
					t.Errorf("header generation %s != body generation %d", hdrGen, body.Generation)
					return
				}
			}
		}()
	}

	for i := 0; i < swaps; i++ {
		gen.Add(1)
		if _, err := s.Reload(); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if got := s.Generation(); got != uint64(swaps+1) {
		t.Errorf("final generation = %d, want %d", got, swaps+1)
	}
}

// TestCursorOutlivesItsGeneration: a Cursor makes each Fact from one
// generation's columns, and its strings are cut from that generation's
// snapshot string table. A reload retires the generation from the server,
// not from a cursor that holds it: opened and stepped on generation g,
// drained after the swap to g+1 while more swaps and collections run beside
// it (under -race in CI), the cursor returns exactly g's facts, in order.
func TestCursorOutlivesItsGeneration(t *testing.T) {
	var facts []store.Fact
	for i := 0; i < 2000; i++ {
		facts = append(facts, store.Fact{
			Entity: fmt.Sprintf("Entity %d", i%700), Class: fmt.Sprintf("C%d", i%5), Attr: fmt.Sprintf("a%d", i%7),
			Value: fmt.Sprintf("v%d", i%300), Confidence: float64(i%100) / 100, Sources: i % 9,
			Ancestors: []string{fmt.Sprintf("p%d", i%30), "root"},
		})
	}
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "g.akb"), filepath.Join(dir, "next.akb")}
	for i, st := range []*store.Sharded{store.NewSharded(facts, 3), markerStore("next", 50)} {
		if err := st.WriteBinarySnapshotFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	// want is g's facts decoded on their own, sharing no memory with g.
	q, _, err := store.OpenSnapshotFile(paths[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	want := q.(*store.Sharded).Facts()

	var loads atomic.Int32 // the first load reads g's file, every later one the other
	cfg := DefaultConfig()
	cfg.Reloader = func() (store.Querier, error) {
		q, _, err := store.OpenSnapshotFile(paths[min(loads.Add(1)-1, 1)], 0)
		return q, err
	}
	s := New(nil, obs.NewRegistry(), cfg)
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	// The cursor is all that holds generation g once the server swaps it out.
	cur, g := func() (store.Cursor, uint64) {
		gen := s.cur.Load()
		return gen.q.Select(store.Pattern{}), gen.num
	}()
	if !cur.Next() {
		t.Fatal("generation g holds no fact")
	}
	got := []store.Fact{cur.Fact()}
	if info, err := s.Reload(); err != nil || info.Generation != g+1 {
		t.Fatalf("reload from generation %d: %+v, %v", g, info, err)
	}
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 0; i < 10; i++ {
			if _, err := s.Reload(); err != nil {
				t.Error(err)
			}
			runtime.GC()
		}
	}()
	for cur.Next() {
		if got = append(got, cur.Fact()); len(got)%256 == 0 {
			runtime.GC()
		}
	}
	<-swapped
	if s.Generation() != g+11 {
		t.Errorf("generation %d after 11 reloads from %d", s.Generation(), g)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the cursor opened on generation %d returned %d facts after the reloads, not its generation's %d", g, len(got), len(want))
	}
}
