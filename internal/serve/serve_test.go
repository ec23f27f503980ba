package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"akb/internal/obs"
	"akb/internal/store"
)

func testStore() *store.Sharded {
	return store.New([]store.Fact{
		{Entity: "Casablanca", Class: "Film", Attr: "director", Value: "Michael Curtiz", Confidence: 0.97, Sources: 5},
		{Entity: "Casablanca", Class: "Film", Attr: "language", Value: "English", Confidence: 0.92, Sources: 4},
		{Entity: "Casablanca", Class: "Film", Attr: "language", Value: "French", Confidence: 0.71, Sources: 2},
		{Entity: "Susie Fang", Class: "Person", Attr: "birth place", Value: "Wuhan", Confidence: 0.88, Sources: 3,
			Ancestors: []string{"Hubei", "China"}},
		{Entity: "Moby Dick", Class: "Book", Attr: "author", Value: "Herman Melville", Confidence: 0.99, Sources: 7},
	})
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(testStore(), obs.NewRegistry(), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") && resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("%s: Content-Type = %q", url, ct)
	}
	var body map[string]any
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("%s: bad JSON %q: %v", url, raw, err)
	}
	return resp.StatusCode, body
}

func TestEntityRoute(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())

	status, body := get(t, ts.URL+"/v1/entity/Casablanca")
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, body)
	}
	if body["class"] != "Film" || body["facts"] != float64(3) {
		t.Errorf("body = %v", body)
	}
	attrs := body["attributes"].(map[string]any)
	if len(attrs["language"].([]any)) != 2 {
		t.Errorf("multi-truth language values missing: %v", attrs)
	}

	// Underscore form resolves to the same entity.
	status, _ = get(t, ts.URL+"/v1/entity/Susie_Fang")
	if status != http.StatusOK {
		t.Errorf("underscored entity id: status = %d", status)
	}

	status, body = get(t, ts.URL+"/v1/entity/Nobody")
	if status != http.StatusNotFound || body["error"] == "" {
		t.Errorf("missing entity: status = %d body = %v", status, body)
	}
}

func TestTriplesRouteMultiTruth(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())

	status, body := get(t, ts.URL+"/v1/triples/Casablanca/language")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	values := body["values"].([]any)
	if len(values) != 2 {
		t.Fatalf("want both accepted languages, got %v", values)
	}
	first := values[0].(map[string]any)
	if first["value"] != "English" || first["confidence"] != 0.92 {
		t.Errorf("first value = %v", first)
	}

	// Hierarchy ancestors ride along on place-valued attributes, and the
	// underscored attribute path form works.
	status, body = get(t, ts.URL+"/v1/triples/Susie_Fang/birth_place")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	v := body["values"].([]any)[0].(map[string]any)
	anc := v["ancestors"].([]any)
	if len(anc) != 2 || anc[1] != "China" {
		t.Errorf("ancestors = %v", anc)
	}

	status, _ = get(t, ts.URL+"/v1/triples/Casablanca/budget")
	if status != http.StatusNotFound {
		t.Errorf("missing attr: status = %d", status)
	}
}

func TestQueryRoute(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())

	status, body := get(t, ts.URL+"/v1/query?class=Film")
	if status != http.StatusOK || body["count"] != float64(3) {
		t.Errorf("class query: status %d body %v", status, body)
	}

	// Hierarchy-aware value query: China matches the Wuhan fact.
	status, body = get(t, ts.URL+"/v1/query?value=China")
	if status != http.StatusOK || body["count"] != float64(1) {
		t.Errorf("value query: status %d body %v", status, body)
	}

	status, body = get(t, ts.URL+"/v1/query?class=Film&attr=language&limit=1")
	if status != http.StatusOK || body["count"] != float64(1) || body["total"] != float64(2) || body["truncated"] != true {
		t.Errorf("limited query: %v", body)
	}

	// 400 paths: no filter, bad limit, unknown parameter.
	for _, u := range []string{"/v1/query", "/v1/query?limit=5", "/v1/query?class=Film&limit=x", "/v1/query?claas=Film"} {
		status, body = get(t, ts.URL+u)
		if status != http.StatusBadRequest || body["error"] == "" {
			t.Errorf("%s: status = %d body = %v", u, status, body)
		}
	}

	// Empty result is 200 with an empty list, not 404.
	status, body = get(t, ts.URL+"/v1/query?class=Opera")
	if status != http.StatusOK || body["count"] != float64(0) {
		t.Errorf("empty query: status %d body %v", status, body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())

	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || body["status"] != "serving" || body["facts"] != float64(5) {
		t.Errorf("healthz = %d %v", status, body)
	}
	if body["ready"] != true || body["generation"] != float64(1) {
		t.Errorf("healthz readiness fields: %v", body)
	}
	if status, _ := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Errorf("readyz while serving = %d", status)
	}

	// Drive one query so serve counters exist, then check /metrics.
	get(t, ts.URL+"/v1/query?class=Film")
	status, body = get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	names := map[string]bool{}
	for _, m := range body["metrics"].([]any) {
		names[m.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"akb_serve_requests_total", "akb_serve_latency_seconds", "akb_serve_cache_misses_total"} {
		if !names[want] {
			t.Errorf("metric %s missing from /metrics (got %v)", want, names)
		}
	}
}

func TestUnknownRoute404(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	status, body := get(t, ts.URL+"/v2/everything")
	if status != http.StatusNotFound || body["error"] == "" {
		t.Errorf("status = %d body = %v", status, body)
	}
}

// TestLoadShedding fills the in-flight bound and asserts the next request
// is shed with 429 and counted.
func TestLoadShedding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 2
	s, ts := testServer(t, cfg)

	// Occupy every in-flight slot directly; requests must now shed.
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	defer func() { <-s.inflight; <-s.inflight }()

	resp, err := http.Get(ts.URL + "/v1/query?class=Film")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if n := s.reg.Counter("akb_serve_shed_total").Value(); n != 1 {
		t.Errorf("shed counter = %d", n)
	}
}

// TestResponseCache asserts the second identical query is served from the
// cache and counted as a hit.
func TestResponseCache(t *testing.T) {
	s, ts := testServer(t, DefaultConfig())
	url := ts.URL + "/v1/query?class=Book"

	s1, b1 := get(t, url)
	s2, b2 := get(t, url)
	if s1 != s2 || fmt.Sprint(b1) != fmt.Sprint(b2) {
		t.Fatalf("cached response differs: %v vs %v", b1, b2)
	}
	if hits := s.reg.Counter("akb_serve_cache_hits_total").Value(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	// Error responses are not cached.
	get(t, ts.URL+"/v1/entity/Nobody")
	get(t, ts.URL+"/v1/entity/Nobody")
	for _, k := range s.cur.Load().cache.Keys() {
		if strings.Contains(k, "Nobody") {
			t.Errorf("404 response cached: %v", s.cur.Load().cache.Keys())
		}
	}
}

// TestConcurrentRequests hammers every route from many goroutines; under
// -race it validates the lock-free store reads and the cache's locking.
func TestConcurrentRequests(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	urls := []string{
		"/v1/entity/Casablanca",
		"/v1/triples/Casablanca/language",
		"/v1/query?class=Film",
		"/v1/query?value=China",
		"/healthz",
		"/metrics",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Get(ts.URL + urls[(g+i)%len(urls)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("%s: status %d", urls[(g+i)%len(urls)], resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGracefulShutdownDrains starts a real listener, parks a slow request
// in flight, cancels the serve context and asserts the in-flight request
// still completes while new connections are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DrainTimeout = 5 * time.Second
	s := New(testStore(), obs.NewRegistry(), cfg)

	// Wrap the handler to make one request observably slow.
	slow := make(chan struct{})
	arrived := make(chan struct{})
	base := s.Handler()
	s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(arrived)
			<-slow
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"slow":true}`))
			return
		}
		base.ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	slowResp := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			slowResp <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slowResp <- resp.StatusCode
	}()

	// Wait until the slow request is in flight, then trigger shutdown.
	select {
	case <-arrived:
	case <-time.After(2 * time.Second):
		t.Fatal("slow request never arrived")
	}
	cancel()
	time.Sleep(50 * time.Millisecond) // let Shutdown close the listener
	close(slow)

	if status := <-slowResp; status != http.StatusOK {
		t.Errorf("in-flight request not drained: status %d", status)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
