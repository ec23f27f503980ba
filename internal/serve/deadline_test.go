package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"akb/internal/obs"
	"akb/internal/store"
)

// stallQuerier delays (or blows up) the entity read: the seam a slow store
// would sit behind, reached through Config.WrapQuerier like the chaos
// harness's faults, so the tests below drive the server's own chain.
type stallQuerier struct {
	store.Querier
	before func()
}

func (q stallQuerier) Select(p store.Pattern) store.Cursor {
	q.before()
	return q.Querier.Select(p)
}

func stallEntity(cfg Config, before func()) Config {
	cfg.WrapQuerier = func(q store.Querier) store.Querier { return stallQuerier{q, before} }
	return cfg
}

// syncBuffer is an access-log sink the server's goroutines and the test
// may touch at once.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// chain wraps a handler in the server's own middleware, deadline included,
// for the behaviours no route of the server's can show.
func chain(s *Server, h http.HandlerFunc) http.Handler {
	return s.observe(s.recoverPanic(s.deadline(h)))
}

// TestDeadlineLeavesAStartedResponseAlone: a handler that has begun its
// response before the deadline keeps it — the timer cancels the context and
// writes nothing — and may finish the body afterwards.
func TestDeadlineLeavesAStartedResponseAlone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RequestTimeout = 30 * time.Millisecond
	s := New(testStore(), obs.NewRegistry(), cfg)
	ts := httptest.NewServer(chain(s, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Handler", "streaming")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, "first,")
		<-r.Context().Done() // the deadline
		time.Sleep(20 * time.Millisecond)
		if _, err := io.WriteString(w, "second"); err != nil {
			t.Errorf("write after the deadline on a started response: %v", err)
		}
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || string(body) != "first,second" || resp.Header.Get("X-Handler") != "streaming" {
		t.Errorf("started response: %d %q (%v) X-Handler=%q, want the handler's own 202 first,second",
			resp.StatusCode, body, err, resp.Header.Get("X-Handler"))
	}
}

// TestDeadlineLeavesAnImplicitlyStartedResponseAlone: a handler whose first
// Write starts its response (no WriteHeader before it) owns the response as
// one that called WriteHeader does. The timer, firing while the handler
// waits on its context, reads what that Write set; run under -race, the
// test fails if Write sets it outside the writer's lock.
func TestDeadlineLeavesAnImplicitlyStartedResponseAlone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RequestTimeout = 20 * time.Millisecond
	s := New(testStore(), obs.NewRegistry(), cfg)
	ts := httptest.NewServer(chain(s, func(w http.ResponseWriter, r *http.Request) {
		done := r.Context().Done()
		io.WriteString(w, "implicit 200")
		<-done // the timer has cancelled the context and is answering now
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "implicit 200" {
		t.Errorf("implicitly started response: %d %q (%v), want the handler's own 200", resp.StatusCode, body, err)
	}
}

// TestFlushThroughTheChain: http.ResponseController reaches the connection
// from behind observe (statusRecorder unwraps) and behind deadline (which
// flushes under its lock), so the first bytes arrive while the handler is
// still running.
func TestFlushThroughTheChain(t *testing.T) {
	s := New(testStore(), obs.NewRegistry(), DefaultConfig())
	release := make(chan struct{})
	flushed := make(chan error, 2)
	ts := httptest.NewServer(chain(s, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "early")
		flushed <- http.NewResponseController(w).Flush()
		<-release
		io.WriteString(w, " late")
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := <-flushed; err != nil {
		t.Fatalf("Flush through the chain: %v", err)
	}
	early := make([]byte, 5)
	if _, err := io.ReadFull(resp.Body, early); err != nil || string(early) != "early" {
		t.Fatalf("first chunk = %q (%v) while the handler is still running", early, err)
	}
	close(release)
	rest, _ := io.ReadAll(resp.Body)
	if string(rest) != " late" {
		t.Errorf("rest of the body = %q", rest)
	}

	// observe alone: the recorder must not hide the connection either.
	ts2 := httptest.NewServer(s.observe(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		flushed <- http.NewResponseController(w).Flush()
	})))
	defer ts2.Close()
	if resp, err := http.Get(ts2.URL); err == nil {
		resp.Body.Close()
	}
	if err := <-flushed; err != nil {
		t.Errorf("Flush behind observe: %v", err)
	}
}

// TestDatalogCancelledAtDeadline: a query that would run for hours is
// answered 503 at the deadline, and the executor really stops — the in-flight
// slot is free again moments later, not when the query is done. The envelope
// is the handler's "query cancelled" or the timer's "request timed out",
// whichever reached the response first. A product of independent clauses is
// counted, not enumerated, once the page is full, so the slow query here is a
// 4-way product whose last clause joins on a variable bound inside it — each
// of its 400⁴ bindings is enumerated — and the product alone comes back 200
// inside the deadline with its exact total.
func TestDatalogCancelledAtDeadline(t *testing.T) {
	var facts []store.Fact
	for i := 0; i < 400; i++ {
		facts = append(facts, store.Fact{Entity: fmt.Sprintf("e%03d", i), Attr: "p", Value: fmt.Sprintf("v%03d", i), Confidence: 1})
	}
	const timeout = 50 * time.Millisecond
	cfg := DefaultConfig()
	cfg.RequestTimeout = timeout
	s := New(store.New(facts), obs.NewRegistry(), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/datalog", "application/json",
		strings.NewReader(`{"query": "?a p ?x . ?b p ?y . ?c p ?z . ?d p ?w . ?d p ?u", "limit": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	var envelope errorBody
	if err := json.Unmarshal(body, &envelope); err != nil || resp.StatusCode != http.StatusServiceUnavailable || envelope.Status != 503 {
		t.Fatalf("enumerated product: %d %q (%v), want a 503 envelope", resp.StatusCode, body, err)
	}
	if envelope.Error != "request timed out" && !strings.HasPrefix(envelope.Error, "query cancelled") {
		t.Errorf("envelope error = %q", envelope.Error)
	}
	if took >= 4*timeout {
		t.Errorf("the 503 took %v at a %v timeout", took, timeout)
	}
	for wait := time.Now(); s.m.inflight.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Since(wait) > 2*time.Second {
			t.Fatal("the executor kept running after the deadline cancelled its context")
		}
	}

	resp, err = http.Post(ts.URL+"/v1/datalog", "application/json",
		strings.NewReader(`{"query": "?a p ?x . ?b p ?y . ?c p ?z . ?d p ?w", "limit": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var answer struct {
		Total int64 `json:"total"`
	}
	if err := json.Unmarshal(body, &answer); err != nil || resp.StatusCode != http.StatusOK || answer.Total != 400*400*400*400 {
		t.Errorf("counted product: %d %q (%v), want 200 with total %d", resp.StatusCode, body, err, 400*400*400*400)
	}
}

// TestAbortAndPanicUnderDeadline: the two ways a handler can leave by
// panic behave as they did: http.ErrAbortHandler tears the connection down
// without a response, any other panic is a JSON 500 — and either way the
// slot is released, the timer is gone and the server keeps serving.
func TestAbortAndPanicUnderDeadline(t *testing.T) {
	var mode atomic.Value
	mode.Store("")
	s := New(testStore(), obs.NewRegistry(), stallEntity(DefaultConfig(), func() {
		switch mode.Load() {
		case "abort":
			panic(http.ErrAbortHandler)
		case "panic":
			panic("boom")
		}
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mode.Store("abort")
	if resp, err := http.Get(ts.URL + "/v1/entity/Casablanca"); err == nil {
		resp.Body.Close()
		t.Errorf("aborted handler answered %d, want a dropped connection", resp.StatusCode)
	}
	mode.Store("panic")
	status, body := get(t, ts.URL+"/v1/entity/Casablanca")
	if status != http.StatusInternalServerError || body["status"] != float64(500) || !strings.Contains(fmt.Sprint(body["error"]), "boom") {
		t.Errorf("panicking handler: %d %v, want the 500 envelope", status, body)
	}
	mode.Store("")
	if status, _ := get(t, ts.URL+"/v1/entity/Casablanca"); status != http.StatusOK {
		t.Errorf("after abort and panic: status %d", status)
	}
	if got := s.m.panics.Value(); got != 1 {
		t.Errorf("akb_serve_panics = %d, want 1 (an abort is not a panic)", got)
	}
	if got := s.m.inflight.Value(); got != 0 {
		t.Errorf("akb_serve_inflight = %v, want 0", got)
	}
}

// TestDeadlineLeavesNothingBehind: a request that beats its deadline stops
// its timer and starts no goroutine. 10k requests leave the goroutine count
// where it was, and no response recorded along the way changes once the
// timeout has passed — a timer left running would have written into it.
func TestDeadlineLeavesNothingBehind(t *testing.T) {
	const timeout = 40 * time.Millisecond
	cfg := DefaultConfig()
	cfg.RequestTimeout = timeout
	s := New(testStore(), obs.NewRegistry(), cfg)
	h := s.Handler()
	targets := []string{"/v1/entity/Casablanca", "/v1/triples/Casablanca/language", "/v1/query?class=Film", "/healthz", "/nope"}

	before := runtime.NumGoroutine()
	var kept []*httptest.ResponseRecorder
	var sizes []int
	for i := 0; i < 10000; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", targets[i%len(targets)], nil))
		if rec.Code == http.StatusServiceUnavailable {
			t.Fatalf("request %d timed out", i)
		}
		if i%100 == 0 {
			kept, sizes = append(kept, rec), append(sizes, rec.Body.Len())
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before 10k requests, %d after", before, after)
	}
	time.Sleep(2 * timeout)
	for i, rec := range kept {
		if rec.Body.Len() != sizes[i] {
			t.Errorf("response %d grew from %d to %d bytes after its request returned: %q", i*100, sizes[i], rec.Body.Len(), rec.Body)
		}
	}
}
