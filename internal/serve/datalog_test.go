package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"akb/internal/obs"
	"akb/internal/resilience"
	"akb/internal/store"
)

func postDatalog(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/v1/datalog", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad JSON %q: %v", raw, err)
	}
	return resp.StatusCode, out
}

// TestDatalogTotalOverflowIs4xx: a counted total that does not fit in an int
// — a 16-clause star on an entity with 20 values of one attribute is 20¹⁶
// rows — is answered with a 4xx envelope naming it, never a wrapped or
// negative total.
func TestDatalogTotalOverflowIs4xx(t *testing.T) {
	var facts []store.Fact
	var clauses []string
	for i := 0; i < 20; i++ {
		facts = append(facts, store.Fact{Entity: "e", Attr: "a", Value: "v" + strconv.Itoa(i), Confidence: 1})
	}
	for i := 0; i < 16; i++ {
		clauses = append(clauses, "e a ?v"+strconv.Itoa(i))
	}
	ts := httptest.NewServer(New(store.New(facts), obs.NewRegistry(), DefaultConfig()).Handler())
	defer ts.Close()
	for _, par := range []int{0, 3} {
		req, _ := json.Marshal(map[string]any{"clauses": clauses, "limit": 1, "parallelism": par})
		status, body := postDatalog(t, ts.URL, string(req))
		if status < 400 || status >= 500 || body["status"] != float64(status) || !strings.Contains(fmt.Sprint(body["error"]), "does not fit") {
			t.Errorf("parallelism %d: %d %v, want a 4xx envelope naming the overflow", par, status, body)
		}
	}
}

func TestDatalogRoute(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())

	// A join: films and their directors' other facts via shared ?f.
	status, body := postDatalog(t, ts.URL,
		`{"query": "?f director ?d . ?f language ?l", "select": ["d", "l"]}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d body = %v", status, body)
	}
	if got := body["vars"]; !reflect.DeepEqual(got, []any{"d", "l"}) {
		t.Errorf("vars = %v", got)
	}
	bindings := body["bindings"].([]any)
	if len(bindings) != 2 || body["total"] != float64(2) || body["count"] != float64(2) {
		t.Fatalf("bindings = %v total = %v", bindings, body["total"])
	}
	for _, b := range bindings {
		m := b.(map[string]any)
		if m["d"] != "Michael Curtiz" {
			t.Errorf("binding = %v", m)
		}
	}
	if _, ok := body["truncated"]; ok {
		t.Errorf("untruncated response should omit truncated, got %v", body["truncated"])
	}

	// The clauses array form is the same query.
	status2, body2 := postDatalog(t, ts.URL,
		`{"clauses": ["?f director ?d", "?f language ?l"], "select": ["d", "l"]}`)
	if status2 != http.StatusOK || !reflect.DeepEqual(body2["bindings"], body["bindings"]) {
		t.Errorf("clauses form diverges: %d %v", status2, body2)
	}

	// Parallel execution is byte-identical.
	_, body3 := postDatalog(t, ts.URL,
		`{"query": "?f director ?d . ?f language ?l", "select": ["d", "l"], "parallelism": 4}`)
	if !reflect.DeepEqual(body3["bindings"], body["bindings"]) {
		t.Errorf("parallel bindings diverge: %v", body3)
	}
}

func TestDatalogClassAndExplain(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	status, body := postDatalog(t, ts.URL, `{"query": "?e:Book ?a ?v", "explain": true}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d body = %v", status, body)
	}
	b := body["bindings"].([]any)[0].(map[string]any)
	if b["e"] != "Moby Dick" {
		t.Errorf("class-restricted binding = %v", b)
	}
	plan := body["plan"].([]any)
	if len(plan) != 1 || !strings.Contains(plan[0].(string), "scan") {
		t.Errorf("plan = %v", plan)
	}
	if body["query"] != "?e:Book ?a ?v" {
		t.Errorf("canonical query = %v", body["query"])
	}
}

func TestDatalogLimitTruncation(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	status, body := postDatalog(t, ts.URL, `{"query": "?e ?a ?v", "limit": 2}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if body["count"] != float64(2) || body["total"] != float64(5) || body["truncated"] != true {
		t.Errorf("count/total/truncated = %v/%v/%v", body["count"], body["total"], body["truncated"])
	}

	// The server ceiling caps even greedy clients.
	cfg := DefaultConfig()
	cfg.MaxResults = 3
	_, ts2 := testServer(t, cfg)
	_, body = postDatalog(t, ts2.URL, `{"query": "?e ?a ?v", "limit": 100}`)
	if body["count"] != float64(3) || body["total"] != float64(5) || body["truncated"] != true {
		t.Errorf("ceiling: count/total/truncated = %v/%v/%v", body["count"], body["total"], body["truncated"])
	}
}

func TestDatalogValidation(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	cases := []struct {
		name, body, wantSub string
	}{
		{"empty body", ``, "invalid request body"},
		{"not json", `nope`, "invalid request body"},
		{"unknown field", `{"query": "?e ?a ?v", "order_by": "e"}`, "unknown field"},
		{"trailing data", `{"query": "?e ?a ?v"} {"again": true}`, "trailing data"},
		{"neither form", `{"select": ["e"]}`, "one of query or clauses"},
		{"both forms", `{"query": "?e ?a ?v", "clauses": ["?e ?a ?v"]}`, "not both"},
		{"parse error", `{"query": "?e ?a"}`, "want 3 terms"},
		{"unbound select", `{"query": "?e ?a ?v", "select": ["ghost"]}`, "appears in no clause"},
		{"negative limit", `{"query": "?e ?a ?v", "limit": -1}`, "invalid limit"},
		{"bad parallelism", `{"query": "?e ?a ?v", "parallelism": 99}`, "invalid parallelism"},
		{"too many clauses", `{"query": "` + strings.Repeat(`?a ?b ?c . `, 17) + `"}`, "exceeds the limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := postDatalog(t, ts.URL, c.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d body = %v", status, body)
			}
			if msg, _ := body["error"].(string); !strings.Contains(msg, c.wantSub) {
				t.Errorf("error = %q, want substring %q", msg, c.wantSub)
			}
			if body["status"] != float64(http.StatusBadRequest) {
				t.Errorf("envelope status = %v", body["status"])
			}
		})
	}
}

// TestDatalogMatchesQueryRoute is the unified-API property over HTTP: a
// single-clause datalog query returns exactly the facts /v1/query
// returns for the equivalent pattern, entity by entity.
func TestDatalogMatchesQueryRoute(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())

	status, qbody := get(t, ts.URL+"/v1/query?attr=language")
	if status != http.StatusOK {
		t.Fatalf("query status = %d", status)
	}
	var wantValues []any
	for _, f := range qbody["facts"].([]any) {
		wantValues = append(wantValues, f.(map[string]any)["value"])
	}

	status, dbody := postDatalog(t, ts.URL, `{"query": "?e language ?v", "select": ["v"]}`)
	if status != http.StatusOK {
		t.Fatalf("datalog status = %d", status)
	}
	var gotValues []any
	for _, b := range dbody["bindings"].([]any) {
		gotValues = append(gotValues, b.(map[string]any)["v"])
	}
	if !reflect.DeepEqual(gotValues, wantValues) {
		t.Errorf("datalog values %v != /v1/query values %v", gotValues, wantValues)
	}
	if dbody["total"] != qbody["total"] {
		t.Errorf("totals diverge: %v vs %v", dbody["total"], qbody["total"])
	}
}

// TestMethodNotAllowedEnvelope pins the 405 contract on every route:
// JSON envelope, status field, Allow header — never the mux's text/plain.
func TestMethodNotAllowedEnvelope(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/healthz", "GET, HEAD"},
		{http.MethodDelete, "/readyz", "GET, HEAD"},
		{http.MethodPost, "/metrics", "GET, HEAD"},
		{http.MethodPost, "/v1/entity/Casablanca", "GET, HEAD"},
		{http.MethodPut, "/v1/triples/Casablanca/director", "GET, HEAD"},
		{http.MethodPost, "/v1/query", "GET, HEAD"},
		{http.MethodGet, "/v1/datalog", "POST"},
		{http.MethodGet, "/v1/admin/reload", "POST"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d", c.method, c.path, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s %s: Content-Type = %q, want JSON envelope", c.method, c.path, ct)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow = %q, want %q", c.method, c.path, got, c.allow)
		}
		var body map[string]any
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Errorf("%s %s: non-JSON 405 body %q", c.method, c.path, raw)
			continue
		}
		if body["status"] != float64(http.StatusMethodNotAllowed) || body["error"] == "" {
			t.Errorf("%s %s: envelope = %v", c.method, c.path, body)
		}
	}

	// HEAD keeps working on GET routes through the guard.
	resp, err := http.Head(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD /healthz = %d", resp.StatusCode)
	}
}

// TestQueryRouteByteEquivalence pins the /v1/query adapter after the
// Pattern refactor: the handler's wire bytes are exactly a hand-built
// response from the store's own LookupN — the URL form is a thin
// adapter over store.Pattern, nothing more.
func TestQueryRouteByteEquivalence(t *testing.T) {
	s, ts := testServer(t, DefaultConfig())

	for _, u := range []string{
		"/v1/query?attr=language",
		"/v1/query?class=Film",
		"/v1/query?entity=Casablanca&attr=director",
		"/v1/query?value=China",
		"/v1/query?attr=language&limit=1",
	} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()

		req, _ := http.NewRequest(http.MethodGet, u, nil)
		qs := req.URL.Query()
		p := store.Pattern{
			Entity: qs.Get("entity"),
			Class:  qs.Get("class"),
			Attr:   qs.Get("attr"),
			Value:  qs.Get("value"),
		}
		limit := s.cfg.MaxResults
		if raw := qs.Get("limit"); raw != "" {
			if n, err := strconv.Atoi(raw); err == nil && n > 0 && n < limit {
				limit = n
			}
		}
		facts, total := testStore().LookupN(p, limit)
		if facts == nil {
			facts = []store.Fact{}
		}
		want, err := json.Marshal(struct {
			Generation uint64       `json:"generation"`
			Count      int          `json:"count"`
			Total      int          `json:"total"`
			Truncated  bool         `json:"truncated,omitempty"`
			Facts      []store.Fact `json:"facts"`
		}{s.Generation(), len(facts), total, total > len(facts), facts})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimRight(string(raw), "\n"); got != string(want) {
			t.Errorf("%s:\n got %s\nwant %s", u, got, want)
		}
	}
}

// TestDatalogThroughChaosWrapper drives /v1/datalog over a chaos-wrapped
// store. A wrapper is just another Querier, so with injection off the
// answers — every strategy, serial and parallel, plan included — are byte
// for byte the unwrapped server's; with it on, a read that panics inside
// the executor (on the handler's goroutine or on a worker's) comes back as
// the 500 envelope: no crash, no hang, and clean service again afterwards.
func TestDatalogThroughChaosWrapper(t *testing.T) {
	ctl := store.NewChaosController(&resilience.FaultPlan{
		Seed:    5,
		Default: resilience.StageFault{FailProb: 1, Transient: true},
	})
	ctl.SetEnabled(false)
	cfg := DefaultConfig()
	cfg.WrapQuerier = ctl.Wrap
	wrapped := httptest.NewServer(New(testStore(), obs.NewRegistry(), cfg).Handler())
	defer wrapped.Close()
	_, plain := testServer(t, DefaultConfig())

	post := func(base, body string) (int, string) {
		t.Helper()
		client := http.Client{Timeout: 10 * time.Second}
		resp, err := client.Post(base+"/v1/datalog", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	var bodies []string
	for _, q := range []string{
		`?f director ?d . ?f language ?l`,                  // scan + probe
		`?a language ?v . ?b language ?v`,                  // hash join on the value
		`Casablanca director ?d . ?e:Book ?a ?w`,           // cross product
		`?e ?a Australia`,                                  // one clause, hierarchical constant
		`?x language ?l . ?x director ?d . ?y language ?l`, // three clauses
	} {
		for _, par := range []int{0, 3} {
			req, _ := json.Marshal(map[string]any{"query": q, "parallelism": par, "explain": true})
			bodies = append(bodies, string(req))
		}
	}
	for _, body := range bodies {
		wantStatus, want := post(plain.URL, body)
		if status, got := post(wrapped.URL, body); status != wantStatus || got != want || status != http.StatusOK {
			t.Errorf("%s through the idle wrapper:\n got %d %s\nwant %d %s", body, status, got, wantStatus, want)
		}
	}
	if ctl.Calls() != 0 {
		t.Errorf("disabled chaos counted %d calls", ctl.Calls())
	}

	ctl.SetEnabled(true)
	for _, body := range bodies {
		status, got := post(wrapped.URL, body)
		var env map[string]any
		if err := json.Unmarshal([]byte(got), &env); err != nil || status != http.StatusInternalServerError ||
			env["status"] != float64(500) || !strings.Contains(env["error"].(string), "injected") {
			t.Errorf("%s under injection: %d %s, want the 500 envelope of an injected fault", body, status, got)
		}
	}
	if ctl.Panics() < int64(len(bodies)) {
		t.Errorf("%d injected panics for %d faulted queries", ctl.Panics(), len(bodies))
	}

	ctl.SetEnabled(false)
	for _, body := range bodies {
		_, want := post(plain.URL, body)
		if status, got := post(wrapped.URL, body); status != http.StatusOK || got != want {
			t.Errorf("%s after injection stopped: %d %s", body, status, got)
		}
	}

	// Faults are injected where a read is opened, so failing a probe takes a
	// probe that opens one: a join on a variable no cursor bound from an
	// entity position. Faulting only that probe's stage spares the first
	// clause's scan and fails the probes — which, in parallel, run on worker
	// goroutines.
	for _, tc := range []struct{ stage, query string }{
		{store.ChaosStageEntity, `?f director ?d . ?d ?a ?v`},   // the entity comes from a value position
		{store.ChaosStageLookup, `Casablanca ?a ?v . ?e ?a ?w`}, // a join on the attribute
	} {
		probes := store.NewChaosController(&resilience.FaultPlan{
			Seed:   5,
			Stages: map[string]resilience.StageFault{tc.stage: {FailProb: 1}},
		})
		cfg.WrapQuerier = probes.Wrap
		faulted := httptest.NewServer(New(testStore(), obs.NewRegistry(), cfg).Handler())
		for _, par := range []int{0, 3} {
			body, _ := json.Marshal(map[string]any{"query": tc.query, "parallelism": par})
			if status, got := post(plain.URL, string(body)); status != http.StatusOK {
				t.Errorf("%s unfaulted: %d %s", body, status, got)
			}
			before := probes.Panics()
			if status, got := post(faulted.URL, string(body)); status != http.StatusInternalServerError || !strings.Contains(got, `"status":500`) {
				t.Errorf("%s with failing probes: %d %s, want the 500 envelope", body, status, got)
			}
			if probes.Panics() == before {
				t.Errorf("%s: no probe was faulted: the query no longer opens a read per binding", body)
			}
		}
		faulted.Close()
	}

	// A join on the first clause's entity reads inside the run its cursor
	// handed out: no (entity, attr) read is opened, so none can be faulted.
	triples := store.NewChaosController(&resilience.FaultPlan{
		Seed:   5,
		Stages: map[string]resilience.StageFault{store.ChaosStageTriples: {FailProb: 1}},
	})
	cfg.WrapQuerier = triples.Wrap
	spared := httptest.NewServer(New(testStore(), obs.NewRegistry(), cfg).Handler())
	defer spared.Close()
	for _, body := range bodies[:2] {
		_, want := post(plain.URL, body)
		if status, got := post(spared.URL, body); status != http.StatusOK || got != want {
			t.Errorf("%s with failing (entity, attr) reads: %d %s, want the unwrapped answer", body, status, got)
		}
	}
	if triples.Panics() != 0 {
		t.Errorf("%d (entity, attr) reads were opened and faulted by an entity join", triples.Panics())
	}
}

// TestReusedBodiesStayTheirOwn drives /v1/datalog answers of many sizes and
// cached GETs through one Handler from eight goroutines (run it under
// -race): every body must equal the one a lone request got, and once the
// traffic is over every cached body must still be the one its first request
// got — a datalog buffer handed back and written again while the cache, or
// a response, still held it would show here. Then a cached route whose
// handler answers out of a reusable buffer is asked once: the buffer must
// stay the cache's, never in the free list.
func TestReusedBodiesStayTheirOwn(t *testing.T) {
	var facts []store.Fact
	for i := 0; i < 300; i++ {
		e := fmt.Sprintf("e%03d", i)
		facts = append(facts,
			store.Fact{Entity: e, Class: "K", Attr: "a", Value: fmt.Sprintf("v%d", i%7), Confidence: 0.5, Sources: 1},
			store.Fact{Entity: e, Class: "K", Attr: "b", Value: strings.Repeat("w", i%40), Confidence: 0.25})
	}
	s := New(store.NewSharded(facts, 4), obs.NewRegistry(), DefaultConfig())
	h := s.Handler()

	type req struct{ method, target, body string }
	var reqs []req
	for _, limit := range []int{1, 3, 17, 100, 250} {
		for _, par := range []int{0, 3} {
			for _, q := range []string{"?e a ?v", "?e a ?v . ?e b ?w", "?e:K a ?v . ?f a ?v"} {
				body, _ := json.Marshal(map[string]any{"query": q, "limit": limit, "parallelism": par})
				reqs = append(reqs, req{http.MethodPost, "/v1/datalog", string(body)})
			}
		}
	}
	for i := 0; i < 300; i += 29 {
		reqs = append(reqs,
			req{http.MethodGet, fmt.Sprintf("/v1/entity/e%03d", i), ""},
			req{http.MethodGet, fmt.Sprintf("/v1/triples/e%03d/b", i), ""},
			req{http.MethodGet, fmt.Sprintf("/v1/query?attr=a&limit=%d", i+1), ""})
	}
	do := func(r req) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
		return rec.Code, rec.Body.String()
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		code, body := do(r)
		if code != http.StatusOK {
			t.Fatalf("%s %s %s: %d %s", r.method, r.target, r.body, code, body)
		}
		want[i] = body
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 150; n++ {
				i := (g*37 + n*11) % len(reqs)
				if code, body := do(reqs[i]); code != http.StatusOK || body != want[i] {
					t.Errorf("%s %s %s: %d\n got %s\nwant %s", reqs[i].method, reqs[i].target, reqs[i].body, code, body, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	cache := s.cur.Load().cache
	for i, r := range reqs {
		if r.method != http.MethodGet {
			continue
		}
		if _, body, ok := cache.get(r.target); !ok || string(body) != want[i] {
			t.Errorf("cached %s (held: %v):\n got %s\nwant %s", r.target, ok, body, want[i])
		}
	}

	// A cached route answering out of a reusable buffer: the body enters the
	// cache, so its buffer must not enter the free list.
	pooled := s.jsonRoute(func(*generation, *http.Request) routeResult {
		buf := bodies.Get().(*bodyBuf)
		buf.b = append(buf.b[:0], "{\"pooled\":true}\n"...)
		return routeResult{status: http.StatusOK, body: buf.b, buf: buf}
	}, cachedRoute)
	pooled(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/pooled", nil))
	_, held, ok := cache.get("/pooled")
	if !ok {
		t.Fatal("the pooled route's body was not cached")
	}
	for {
		buf := bodies.Get().(*bodyBuf)
		if cap(buf.b) == 0 {
			break // the free list is drained: New made this one
		}
		if &buf.b[:1][0] == &held[:1][0] {
			t.Fatal("a cached body's buffer was handed back to the free list")
		}
	}
}
