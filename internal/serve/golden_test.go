package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strings"
	"testing"

	"akb/internal/core"
	"akb/internal/datalog"
	"akb/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden digests in testdata")

const goldenResponsesPath = "testdata/golden_responses.json"

// datalogDigest is the identity of one /v1/datalog answer. Body is the
// served bytes at the default cap; Total and Rows (the sha256 of every
// binding, sorted, with no cap) are what the query means whatever order a
// plan emits it in; Plan is the explain output that produced Body.
type datalogDigest struct {
	Body  string   `json:"body"`
	Total int      `json:"total"`
	Rows  string   `json:"rows"`
	Plan  []string `json:"plan"`
}

// responseDigest is the identity of everything one KB answers: the sha256
// over the bodies of every /v1/entity, of every /v1/triples pair, of a fixed
// /v1/query set, and one datalogDigest per query of a fixed /v1/datalog set.
type responseDigest struct {
	Entity  string                   `json:"entity"`
	Triples string                   `json:"triples"`
	Query   string                   `json:"query"`
	Datalog map[string]datalogDigest `json:"datalog"`
}

// escapeFacts is a hand-made KB whose names need every escape the JSON
// writer knows: quotes and backslashes, the HTML-unsafe <>&, control bytes
// with and without a short form, NUL, DEL, invalid and truncated UTF-8, and
// the line separators U+2028/U+2029 — in every field, with confidences at
// the float formatter's corners, the largest source count and empty, nil
// and absent optionals.
func escapeFacts() []store.Fact {
	return []store.Fact{
		{Entity: `q"uo\te`, Class: "C<&>", Attr: "a<b>&c", Value: `back\slash "quoted"`, Confidence: 1, Sources: 3,
			Ancestors: []string{"up\u2028one", "up\u2029two"}},
		{Entity: `q"uo\te`, Class: "C<&>", Attr: "ctl\x01\x1f", Value: "tab\there\r\n\b\f", Confidence: 1e-7, Sources: 1},
		{Entity: `q"uo\te`, Class: "C<&>", Attr: "ctl\x01\x1f", Value: "del\x7f", Confidence: 1e-6},
		{Entity: `q"uo\te`, Class: "C<&>", Attr: "z", Value: `q"uo\te`, Confidence: 1e21, Sources: 2},
		{Entity: "nul\x00in", Class: "C<&>", Attr: "a<b>&c", Value: "bad\xffutf8", Confidence: 5e-324, Sources: 1,
			Ancestors: []string{"cut\xe2\x82", "\x00"}},
		{Entity: "nul\x00in", Class: "C<&>", Attr: "ctl\x01\x1f", Value: "é\u2028\u2029\ufffd😀", Confidence: -0.25, Sources: 9},
		{Entity: "nul\x00in", Class: "C<&>", Attr: "z", Value: "nul\x00in", Confidence: 0.12345678901234568},
		{Entity: "bad\xffutf8", Attr: "a<b>&c", Value: "", Confidence: 0, Ancestors: []string{}},
		{Entity: "bad\xffutf8", Attr: "z", Value: "plain", Confidence: math.MaxFloat64, Sources: math.MaxInt},
		{Entity: "plain", Class: "Other", Attr: "z", Value: "plain", Confidence: 0.5, Sources: 1, Ancestors: []string{"C<&>"}},
	}
}

// goldenCase is one KB with the fixed request sets asked of it.
type goldenCase struct {
	name    string
	facts   []store.Fact
	shards  int
	queries []string // /v1/query targets and the 404/400 probes
	datalog []datalog.Query
}

// goldenRequests derives the fixed /v1/query and /v1/datalog sets from a
// KB's canonical facts: the class with the most facts that has three
// attributes at least half its entities carry, its first three such
// attributes, and the first fact with ancestors.
func goldenRequests(facts []store.Fact) (queries []string, dl []datalog.Query) {
	entities := map[string]map[string]bool{}
	carriers := map[[2]string]map[string]bool{}
	first := map[[2]string]store.Fact{}
	size := map[string]int{}
	var anc store.Fact
	for _, f := range facts {
		if len(f.Ancestors) > 0 && anc.Entity == "" {
			anc = f
		}
		if f.Class == "" {
			continue
		}
		k := [2]string{f.Class, f.Attr}
		if entities[f.Class] == nil {
			entities[f.Class] = map[string]bool{}
		}
		if carriers[k] == nil {
			carriers[k] = map[string]bool{}
			first[k] = f
		}
		entities[f.Class][f.Entity] = true
		carriers[k][f.Entity] = true
		size[f.Class]++
	}
	core := map[string][]string{}
	for k, es := range carriers {
		if 2*len(es) >= len(entities[k[0]]) {
			core[k[0]] = append(core[k[0]], k[1])
		}
	}
	var classes []string
	for c, attrs := range core {
		sort.Strings(attrs)
		if len(attrs) >= 3 {
			classes = append(classes, c)
		}
	}
	sort.Slice(classes, func(i, j int) bool {
		if size[classes[i]] != size[classes[j]] {
			return size[classes[i]] > size[classes[j]]
		}
		return classes[i] < classes[j]
	})
	class, other := classes[0], classes[len(classes)-1]
	a, b := core[class], core[other]
	f0 := first[[2]string{class, a[0]}]

	target := func(p store.Pattern, limit int) string {
		v := url.Values{}
		for k, s := range map[string]string{"entity": p.Entity, "class": p.Class, "attr": p.Attr, "value": p.Value} {
			if s != "" {
				v.Set(k, s)
			}
		}
		if limit > 0 {
			v.Set("limit", fmt.Sprint(limit))
		}
		return "/v1/query?" + v.Encode()
	}
	for _, p := range []store.Pattern{
		{Class: class, Attr: a[0]},
		{Attr: a[0], Value: f0.Value},
		{Value: anc.Ancestors[len(anc.Ancestors)-1]},
		{Entity: f0.Entity, Attr: a[1]},
		{Class: other},
		{Attr: b[len(b)-1]},
		{Class: class, Attr: a[1], Value: anc.Ancestors[0]},
	} {
		for _, limit := range []int{1, 50, 0} {
			queries = append(queries, target(p, limit))
		}
	}
	queries = append(queries,
		"/v1/query?value=No+Such+Value",
		"/v1/entity/No_Such_Entity",
		"/v1/triples/"+url.PathEscape(f0.Entity)+"/no_such_attr",
		"/v1/query?claas=x",
		"/v1/query?class="+url.QueryEscape(class)+"&limit=0",
	)

	v, c := datalog.V, datalog.C
	dl = []datalog.Query{
		// The benchmark's four templates.
		{Clauses: []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("x")},
			{Entity: v("f"), Attr: c(a[1]), Value: v("y")}}},
		{Clauses: []datalog.Clause{
			{Entity: v("f"), Attr: c(a[0]), Value: c(f0.Value)},
			{Entity: v("f"), Attr: c(a[1]), Value: v("y")}}},
		{Clauses: []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("v")},
			{Entity: v("g"), Class: class, Attr: c(a[0]), Value: v("v")}}},
		{Clauses: []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: c(a[0]), Value: v("x")},
			{Entity: v("f"), Attr: c(a[1]), Value: v("y")},
			{Entity: v("f"), Attr: c(a[2]), Value: v("z")}}},
		// The same join with the selective clause last and on another class.
		{Clauses: []datalog.Clause{
			{Entity: v("f"), Attr: c(b[1]), Value: v("y")},
			{Entity: v("f"), Class: other, Attr: c(b[0]), Value: c(first[[2]string{other, b[0]}].Value)}}},
		// A variable repeated inside one clause, and across attributes.
		{Clauses: []datalog.Clause{{Entity: v("x"), Attr: v("a"), Value: v("x")}}},
		{Clauses: []datalog.Clause{
			{Entity: v("f"), Class: class, Attr: v("p"), Value: v("x")},
			{Entity: v("f"), Attr: v("p"), Value: c(f0.Value)}}},
		// A cross product: no shared variable.
		{Clauses: []datalog.Clause{
			{Entity: v("f"), Attr: c(a[0]), Value: c(f0.Value)},
			{Entity: v("g"), Class: other, Attr: c(b[0]), Value: v("y")}}},
		// A hierarchy-ancestor constant joined to the entity's other facts.
		{Clauses: []datalog.Clause{
			{Entity: v("f"), Attr: v("p"), Value: c(anc.Ancestors[len(anc.Ancestors)-1])},
			{Entity: v("f"), Class: anc.Class, Attr: c(anc.Attr), Value: v("y")}}},
	}
	return queries, dl
}

func goldenCases(t *testing.T) []goldenCase {
	seeds, scales := []int64{1, 7}, []int{1, 4}
	if testing.Short() && !*update {
		seeds, scales = seeds[:1], scales[:1]
	}
	var cases []goldenCase
	for _, seed := range seeds {
		for _, scale := range scales {
			res, err := core.New(core.WithSeed(seed), core.WithScale(scale)).Run(context.Background())
			if err != nil {
				t.Fatalf("seed=%d scale=%d: %v", seed, scale, err)
			}
			facts := store.New(store.ResultFacts(res)).Facts()
			queries, dl := goldenRequests(facts)
			for _, shards := range []int{1, 8} {
				cases = append(cases, goldenCase{
					name:  fmt.Sprintf("seed=%d/scale=%d/shards=%d", seed, scale, shards),
					facts: facts, shards: shards, queries: queries, datalog: dl,
				})
			}
		}
	}
	v, c := datalog.V, datalog.C
	for _, shards := range []int{1, 8} {
		cases = append(cases, goldenCase{
			name:   fmt.Sprintf("escapes/shards=%d", shards),
			facts:  store.New(escapeFacts()).Facts(),
			shards: shards,
			queries: []string{
				"/v1/query?class=" + url.QueryEscape("C<&>"),
				"/v1/query?class=" + url.QueryEscape("C<&>") + "&attr=" + url.QueryEscape("a<b>&c"),
				"/v1/query?attr=z&value=plain&limit=1",
				"/v1/query?value=" + url.QueryEscape("up\u2029two"),
				"/v1/query?value=%00",
				"/v1/query?value=" + url.QueryEscape("cut\xe2\x82"),
				"/v1/query?entity=" + url.QueryEscape("bad\xffutf8"),
				"/v1/query?entity=" + url.QueryEscape("nul\x00in") + "&attr=z",
				"/v1/query?value=" + url.QueryEscape("C<&>"),
				"/v1/entity/" + url.PathEscape("no\x00<such>\xff"),
				"/v1/triples/" + url.PathEscape("nul\x00in") + "/" + url.PathEscape("<\u2028>"),
				"/v1/query?" + url.QueryEscape("<\xff>") + "=1",
				"/v1/query?limit=" + url.QueryEscape("<1\u2028>") + "&class=x",
			},
			datalog: []datalog.Query{
				{Clauses: []datalog.Clause{{Entity: v("e"), Attr: v("a"), Value: v("v")}}},
				{Clauses: []datalog.Clause{{Entity: v("e"), Attr: v("a"), Value: v("v")}}, Select: []string{"v", "e", "v"}},
				{Clauses: []datalog.Clause{{Entity: v("x"), Attr: v("a"), Value: v("x")}}},
				{Clauses: []datalog.Clause{
					{Entity: v("e"), Class: "C<&>", Attr: c("a<b>&c"), Value: v("v")},
					{Entity: v("e"), Attr: c("z"), Value: v("w")}}},
				{Clauses: []datalog.Clause{
					{Entity: v("e"), Attr: c("z"), Value: v("w")},
					{Entity: v("g"), Attr: v("p"), Value: c("C<&>")}}},
				{Clauses: []datalog.Clause{{Entity: c(`q"uo\te`), Attr: c("a<b>&c"), Value: c("up\u2028one")}}},
			},
		})
	}
	return cases
}

// serveBody answers one request through the full handler chain without a
// socket and returns the status and the body.
func serveBody(t *testing.T, h http.Handler, method, target, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// datalogKey names a query of the fixed set in the golden files.
func datalogKey(q datalog.Query) string {
	key := q.String()
	if len(q.Select) > 0 {
		key += " | select " + strings.Join(q.Select, ",")
	}
	return key
}

func digestOf(c goldenCase, t *testing.T) responseDigest {
	var q store.Querier = store.New(c.facts)
	if c.shards > 1 {
		q = store.NewSharded(c.facts, c.shards)
	}
	cfg := DefaultConfig()
	h := New(q, nil, cfg).Handler()
	cfg.MaxResults = math.MaxInt32
	uncapped := New(q, nil, cfg).Handler()

	entity, triples, query := sha256.New(), sha256.New(), sha256.New()
	for i, f := range c.facts {
		if i == 0 || f.Entity != c.facts[i-1].Entity {
			status, body := serveBody(t, h, "GET", "/v1/entity/"+url.PathEscape(f.Entity), "")
			if status != http.StatusOK {
				t.Fatalf("%s: entity %q: status %d: %s", c.name, f.Entity, status, body)
			}
			entity.Write(body)
		}
		if i == 0 || f.Entity != c.facts[i-1].Entity || f.Attr != c.facts[i-1].Attr {
			target := "/v1/triples/" + url.PathEscape(f.Entity) + "/" + url.PathEscape(f.Attr)
			status, body := serveBody(t, h, "GET", target, "")
			if status != http.StatusOK {
				t.Fatalf("%s: %s: status %d: %s", c.name, target, status, body)
			}
			triples.Write(body)
		}
	}
	for _, target := range c.queries {
		status, body := serveBody(t, h, "GET", target, "")
		fmt.Fprintf(query, "%d %d\n", status, len(body))
		query.Write(body)
	}

	d := responseDigest{
		Entity:  hex.EncodeToString(entity.Sum(nil)),
		Triples: hex.EncodeToString(triples.Sum(nil)),
		Query:   hex.EncodeToString(query.Sum(nil)),
		Datalog: map[string]datalogDigest{},
	}
	post := func(h http.Handler, q datalog.Query, explain bool) []byte {
		req, err := json.Marshal(datalogRequest{Query: q.String(), Select: q.Select, Explain: explain})
		if err != nil {
			t.Fatal(err)
		}
		status, body := serveBody(t, h, "POST", "/v1/datalog", string(req))
		if status != http.StatusOK {
			t.Fatalf("%s: datalog %s: status %d: %s", c.name, q, status, body)
		}
		return body
	}
	for _, q := range c.datalog {
		key := datalogKey(q)
		body := sha256.Sum256(post(h, q, false))
		var all struct {
			Total    int
			Plan     []string
			Bindings []map[string]string
		}
		if err := json.Unmarshal(post(uncapped, q, true), &all); err != nil {
			t.Fatalf("%s: datalog %s: %v", c.name, q, err)
		}
		if all.Total != len(all.Bindings) {
			t.Fatalf("%s: datalog %s: total %d but %d bindings with no cap", c.name, q, all.Total, len(all.Bindings))
		}
		rows := make([]string, len(all.Bindings))
		for i, b := range all.Bindings {
			raw, _ := json.Marshal(b)
			rows[i] = string(raw)
		}
		sort.Strings(rows)
		sorted := sha256.Sum256([]byte(strings.Join(rows, "\n")))
		d.Datalog[key] = datalogDigest{
			Body:  hex.EncodeToString(body[:]),
			Total: all.Total,
			Rows:  hex.EncodeToString(sorted[:]),
			Plan:  all.Plan,
		}
	}
	return d
}

// TestGoldenResponseDigest pins the bytes the four data routes answer
// with: for live pipeline KBs (seeds {1, 7} × scale {1, 4}) and a hand-made
// KB of names that need every JSON escape, flat and 8-way sharded, the
// bodies must hash to the digests checked into testdata. The digests were
// recorded on the tree that encoded through encoding/json, picked postings
// lists by a fixed precedence and merged shards by value (before PR 14), so
// a green run proves the hand-written encoders, the shortest-list cursor and
// the by-reference merge answer with the same bytes.
//
// A /v1/datalog body is its plan's nested-loop order, so its Body digest
// may move when the planner's estimates change the plan; Total and the
// digest of the sorted, uncapped rows must not. Regenerate with
// `go test ./internal/serve -run TestGoldenResponseDigest -update` only
// when a response change is intended. -short runs seed 1 at scale 1 and the
// escape KB.
func TestGoldenResponseDigest(t *testing.T) {
	golden := map[string]responseDigest{}
	readGolden(t, goldenResponsesPath, &golden)
	for _, c := range goldenCases(t) {
		got := digestOf(c, t)
		if *update {
			golden[c.name] = got
			continue
		}
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: no golden digest recorded", c.name)
		}
		if got.Entity != want.Entity {
			t.Errorf("%s: /v1/entity bodies changed", c.name)
		}
		if got.Triples != want.Triples {
			t.Errorf("%s: /v1/triples bodies changed", c.name)
		}
		if got.Query != want.Query {
			t.Errorf("%s: /v1/query bodies changed", c.name)
		}
		if len(got.Datalog) != len(want.Datalog) {
			t.Errorf("%s: %d datalog queries, %d recorded", c.name, len(got.Datalog), len(want.Datalog))
		}
		for q, g := range got.Datalog {
			w := want.Datalog[q]
			if g.Total != w.Total || g.Rows != w.Rows {
				t.Errorf("%s: datalog %s: answer changed (total %d, recorded %d)", c.name, q, g.Total, w.Total)
			}
			if g.Body != w.Body {
				t.Errorf("%s: datalog %s: body changed\n plan now: %q\n recorded: %q", c.name, q, g.Plan, w.Plan)
			}
		}
	}
	writeGolden(t, goldenResponsesPath, golden)
}

// readGolden loads a golden file of testdata into v; under -update the file
// is about to be rewritten and v stays as it is.
func readGolden(t *testing.T, path string, v any) {
	t.Helper()
	if *update {
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
}

// writeGolden rewrites a golden file from v, under -update only.
func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	if !*update {
		return
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

const goldenProbesPath = "testdata/golden_probes.json"

// TestGoldenProbes pins the executor's work, as TestGoldenResponseDigest
// pins its answers: Result.Probes of every query of the fixed /v1/datalog
// set, on the same KBs and layouts, must be the count checked into
// testdata. A probe is one index read per binding wherever it is read —
// opened on the store, taken out of a hash bucket or read inside the run a
// cursor handed out — so a change to how a probe reads must not move the
// count, and the parallel path must count what the serial one does. The
// counts were recorded on the tree whose every probe opened a Select
// (before PR 17); regenerate with -update only when a plan change is
// intended.
func TestGoldenProbes(t *testing.T) {
	golden := map[string]map[string]int64{}
	readGolden(t, goldenProbesPath, &golden)
	ctx := context.Background()
	for _, c := range goldenCases(t) {
		src := store.NewSharded(c.facts, c.shards)
		got := map[string]int64{}
		for _, q := range c.datalog {
			serial, err := datalog.Run(ctx, src, q, datalog.Options{})
			if err != nil {
				t.Fatalf("%s: datalog %s: %v", c.name, q, err)
			}
			parallel, err := datalog.Run(ctx, src, q, datalog.Options{Parallelism: 3})
			if err != nil {
				t.Fatalf("%s: datalog %s: %v", c.name, q, err)
			}
			if parallel.Probes != serial.Probes {
				t.Errorf("%s: datalog %s: %d probes with three workers, %d serial", c.name, q, parallel.Probes, serial.Probes)
			}
			got[datalogKey(q)] = serial.Probes
		}
		if *update {
			golden[c.name] = got
			continue
		}
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: no golden probes recorded", c.name)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d datalog queries, %d recorded", c.name, len(got), len(want))
		}
		for q, n := range got {
			if n != want[q] {
				t.Errorf("%s: datalog %s: %d probes, recorded %d", c.name, q, n, want[q])
			}
		}
	}
	writeGolden(t, goldenProbesPath, golden)
}
