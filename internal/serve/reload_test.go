package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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

// TestErrorEnvelopeUniform asserts the error statuses the API can emit
// use the same {"error", "status"} envelope; among them a reload on a
// server with no reloader, which the server model never builds.
func TestErrorEnvelopeUniform(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())

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
			if url, ok := strings.CutPrefix(tc.url, "POST "); ok {
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
