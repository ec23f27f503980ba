package serve

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"akb/internal/obs"
	"akb/internal/store"
)

// fuzzFacts is the KB FuzzHandlerRequests asks: two facts, names that need
// escaping in every field. Two, so that any query answers well inside the
// deadline — a 16-clause product is 2^16 rows — and a 503 can only mean the
// server failed: the fuzz is of the request decoders, not of the executor's
// cost, which nothing but the deadline bounds yet.
var fuzzFacts = []store.Fact{
	{Entity: `q"uo\te`, Class: "C<&>", Attr: "a<b>&c", Value: "up one", Confidence: 0.5, Sources: 2,
		Ancestors: []string{"\x00", "bad\xffutf8"}},
	{Entity: "nul\x00in", Attr: "z", Value: `q"uo\te`, Confidence: 1, Sources: 1},
}

// FuzzHandlerRequests sends what a client controls — a /v1/datalog body and
// a /v1/query string — through the whole handler chain. Whatever the bytes,
// the answer is never a 5xx and akb_serve_panics never moves: a request the
// server cannot make sense of is the client's 4xx.
func FuzzHandlerRequests(f *testing.F) {
	for _, seed := range []struct{ body, query string }{
		{`{"query": "?e ?a ?v"}`, "class=C%3C%26%3E"},
		{`{"query": "?f director ?d . ?f genre ?g", "select": ["f", "d"], "limit": 2}`, "attr=z&value=plain&limit=1"},
		{`{"clauses": ["?e:C<&> ?a ?v", "?e z ?w"], "explain": true, "parallelism": 2}`, "entity=nul%00in&attr=z"},
		{`{"query": "?x ?a ?x", "select": ["x", "x"]}`, "value=up%E2%80%A8one"},
		{`{"query": "?e ?a ?v", "limit": -1, "parallelism": 99}`, "limit=-1"},
		{`{"query": "?e ?a ?v", "clauses": ["?e ?a ?v"]}`, "claas=x"},
		{`{"query": "?e ?a ?v"} {}`, "limit=%3C1%E2%80%A8%3E&class=x"},
		{`{"query": "?e ?a"}`, "value=%00&limit=99999999999999999999"},
		{`{"query": 7, "unknown": true}`, "%zz&=&&entity"},
		{`not json`, ""},
		{``, "entity=" + strings.Repeat("x", 300)},
	} {
		f.Add(seed.body, seed.query)
	}
	reg := obs.NewRegistry()
	h := New(store.NewSharded(fuzzFacts, 2), reg, DefaultConfig()).Handler()
	panics := reg.Counter("akb_serve_panics")
	f.Fuzz(func(t *testing.T, body, query string) {
		before := panics.Value()
		dl := httptest.NewRequest(http.MethodPost, "/v1/datalog", strings.NewReader(body))
		dl.Header.Set("Content-Type", "application/json")
		// The query string goes in raw: a router sees whatever bytes the
		// connection's request line carried.
		q := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
		q.URL.RawQuery, q.RequestURI = query, "/v1/query?"+query
		for _, c := range []struct {
			req  *http.Request
			sent string
		}{{dl, body}, {q, query}} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, c.req)
			if rec.Code >= 500 {
				t.Errorf("%s %s with %s: status %d: %s", c.req.Method, c.req.URL.Path, strconv.Quote(c.sent), rec.Code, rec.Body.Bytes())
			}
		}
		if n := panics.Value() - before; n != 0 {
			t.Errorf("akb_serve_panics rose by %d on body %s, query %s", n, strconv.Quote(body), strconv.Quote(query))
		}
	})
}
