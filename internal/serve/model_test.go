package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"akb/internal/datalog"
	"akb/internal/obs"
	"akb/internal/resilience"
	"akb/internal/store"
)

// The model test drives a real Handler() and a small statement of what the
// server must do from one operation stream: reads on every route, datalog,
// reloads good and bad, requests held at a gate past their deadline or
// cancelled while they read, injected store panics switched on and off, and
// at the end Serve on a loopback listener, shut down with requests in
// flight. The model knows every generation's facts, and a 200 must be the
// brute-force answer over the facts of the generation its X-Akb-Generation
// header names; any other status must be one the model allows at that
// point. Every response carries its own X-Request-ID and is logged once,
// under it, with its status; at the end the server's metrics equal the
// model's counts.

const (
	// modelMaxInFlight is small, so the stream can hold every slot.
	modelMaxInFlight = 2
	// modelTimeout is short, so a held request meets its deadline quickly.
	modelTimeout = 50 * time.Millisecond
	// modelMaxResults is below the KBs' sizes, so pages truncate unasked.
	modelMaxResults = 6
	// modelWait bounds every wait for the server; it is never reached by a
	// server that works.
	modelWait = 5 * time.Second
	// holdPrefix starts the entity names the gate holds. No KB has one.
	holdPrefix = "hold-"
)

// modelNames is the pool every name of a model KB is drawn from: names that
// need every kind of escape in a path, a query string, datalog text and
// JSON; a name and its underscore spelling, which the entity and triples
// routes fold into each other; invalid UTF-8, which JSON answers replace.
var modelNames = []string{
	"a", "ab", "a b", "a_b", "b", "a\x00b", `q"uo\te`, "<tag> & </tag>",
	"new\nline", "é", "sep\u2028x", "x?y", "50%", "3.5", "bad\xffutf8",
}

// stampEntity carries one fact whose value numbers the store: successive
// good stores never answer its reads alike, so a body cached across a
// reload shows.
const stampEntity = "a b"

// opSource chooses the operations and every argument of them: a seeded
// generator for the seeded test, the fuzzer's bytes for the fuzz target.
type opSource interface {
	Intn(n int) int
	More() bool
}

type seededOps struct {
	*rand.Rand
	left int
}

func (s *seededOps) More() bool { s.left--; return s.left >= 0 }

// byteOps reads one choice a byte; the stream ends with the bytes.
type byteOps struct{ data []byte }

func (b *byteOps) Intn(n int) int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0]) % n
	b.data = b.data[1:]
	return v
}

func (b *byteOps) More() bool { return len(b.data) > 0 }

// modelFacts generates one KB with distinct identity keys, in canonical
// order: few names, so keys collide in every position and values are
// shared; empty classes; ancestor chains, so a value is reached through
// what generalises it; the stamp fact.
func modelFacts(r *rand.Rand, stamp int) []store.Fact {
	name := func() string { return modelNames[r.Intn(len(modelNames))] }
	facts := []store.Fact{{Entity: stampEntity, Class: "stamp", Attr: "stamp", Value: strconv.Itoa(stamp), Confidence: 1, Sources: 1}}
	seen := map[[4]string]bool{{stampEntity, "stamp", facts[0].Value, "stamp"}: true}
	for n := 5 + r.Intn(36); n > 0; n-- {
		f := store.Fact{Entity: name(), Attr: name(), Value: name(), Confidence: float64(r.Intn(1001)) / 1000, Sources: r.Intn(4)}
		if r.Intn(4) > 0 {
			f.Class = name()
		}
		for _, i := range r.Perm(len(modelNames))[:r.Intn(4)] {
			if modelNames[i] != f.Value {
				f.Ancestors = append(f.Ancestors, modelNames[i])
			}
		}
		if k := [4]string{f.Entity, f.Attr, f.Value, f.Class}; !seen[k] {
			seen[k] = true
			facts = append(facts, f)
		}
	}
	slices.SortFunc(facts, func(a, b store.Fact) int {
		return slices.Compare([]string{a.Entity, a.Attr, a.Value, a.Class}, []string{b.Entity, b.Attr, b.Value, b.Class})
	})
	return facts
}

func entityCount(facts []store.Fact) int {
	n := 0
	for i := range facts {
		if i == 0 || facts[i].Entity != facts[i-1].Entity {
			n++
		}
	}
	return n
}

func selectFacts(facts []store.Fact, keep func(f *store.Fact) bool) (out []store.Fact) {
	for i := range facts {
		if keep(&facts[i]) {
			out = append(out, facts[i])
		}
	}
	return out
}

// poisonedCtx is a request context that panics when asked for its Done
// channel. The deadline middleware is the first to ask, so the panic is
// raised in the middleware, below every route's own recovery: the one fault
// only the outermost recovery can answer.
type poisonedCtx struct{ context.Context }

func (poisonedCtx) Done() <-chan struct{} { panic("poisoned request context") }

// hold is one request the gate keeps in the store read of its hold name
// until the test releases it, holding its in-flight slot all the while.
type hold struct {
	name    string
	c       *call
	st      modelState
	rec     *modelRecorder
	start   time.Time
	cancel  context.CancelFunc
	arrived chan struct{} // closed when the read reaches the gate
	release chan struct{} // closed by the test
	done    chan struct{} // closed when the request has returned
	once    sync.Once
}

// gate holds the reads of hold names; every other read goes through the
// chaos wrapper. A held read skips chaos, so a hold always reaches the gate.
type gate struct {
	mu    sync.Mutex
	holds map[string]*hold
}

type gateQuerier struct {
	store.Querier // the chaos-wrapped store
	g             *gate
	base          store.Querier
}

func (q gateQuerier) Select(p store.Pattern) store.Cursor {
	if !strings.HasPrefix(p.Entity, holdPrefix) {
		return q.Querier.Select(p)
	}
	q.g.mu.Lock()
	h := q.g.holds[p.Entity]
	q.g.mu.Unlock()
	if h != nil {
		h.once.Do(func() { close(h.arrived) })
		<-h.release
	}
	return q.base.Select(p)
}

// modelRecorder is the ResponseWriter of every request: safe to read while
// a held request's handler still runs, with the header as it was sent and
// the moment it was.
type modelRecorder struct {
	header http.Header
	wrote  chan struct{} // closed at the first WriteHeader

	mu      sync.Mutex
	status  int
	sent    http.Header
	wroteAt time.Time
	body    bytes.Buffer
}

func newModelRecorder() *modelRecorder {
	return &modelRecorder{header: http.Header{}, wrote: make(chan struct{})}
}

func (r *modelRecorder) Header() http.Header { return r.header }

func (r *modelRecorder) WriteHeader(code int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.status != 0 {
		return
	}
	r.status, r.sent, r.wroteAt = code, r.header.Clone(), time.Now()
	close(r.wrote)
}

func (r *modelRecorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Write(p)
}

// response is what a client saw: the elapsed time runs from sending to
// the status line.
type response struct {
	status  int
	header  http.Header
	body    []byte
	elapsed time.Duration
}

func (r *modelRecorder) response(start time.Time) response {
	r.mu.Lock()
	defer r.mu.Unlock()
	return response{status: r.status, header: r.sent, body: bytes.Clone(r.body.Bytes()), elapsed: r.wroteAt.Sub(start)}
}

type callKind int

const (
	kindData    callKind = iota // entity, triples, query, datalog: reads a generation
	kindHealthz                 // /healthz
	kindReadyz                  // /readyz
	kindMetrics                 // /metrics, JSON
	kindProm                    // /metrics, Prometheus text
	kindReload                  // POST /v1/admin/reload
	kindFixed                   // a status the request alone decides (unknown route, wrong method)
)

// answer is what the model says a request is owed: a status, and for a 200
// either the exact body or a check of it; any other status is the error
// envelope.
type answer struct {
	status int
	body   []byte
	check  func(body []byte, gen uint64) string
}

// call is one request of the stream and what the model expects of it.
type call struct {
	method, target, body string
	kind                 callKind
	// want answers a kindData call from the facts of the generation the
	// response names, and a kindReload or kindFixed call outright.
	want func(facts []store.Fact, gen uint64) answer
	// reads: the route reads the store, so an injected fault may fail it.
	reads bool
	// datalog: a request whose client has gone may answer 499.
	datalog bool
	// serial: a datalog query on one worker, whose executor may finish a
	// small read without seeing its cancelled context.
	serial bool

	inbound     string // X-Request-ID sent, if any
	poison      bool   // sent with a poisonedCtx
	cancel      bool   // its context is cancelled before it returns
	mustTimeout bool   // held past its deadline
}

// modelState is what the model knows when a request is sent.
type modelState struct {
	gen     uint64
	allowed []uint64 // the generations a response may name; 0: none loaded yet
	health  Health
	held    int
	chaos   bool
}

// modelRun is one server under one operation stream, and the model of it.
type modelRun struct {
	t    testing.TB
	ops  opSource
	kb   *rand.Rand
	s    *Server
	h    http.Handler
	reg  *obs.Registry
	ctl  *store.ChaosController
	gate *gate
	log  *syncBuffer
	dir  string
	step int

	shards int
	next   func() (store.Querier, error) // what the reloader returns next
	stamp  int
	held   []*hold
	holds  int // hold names handed out
	// onWrap runs while a reload prepares its store, before the swap.
	onWrap func()

	// mu guards what readers running beside the stream touch: the
	// generations' facts, the request IDs and the counts.
	mu      sync.Mutex
	gens    map[uint64][]store.Fact
	gen     uint64 // the serving generation; 0 before the first store
	lastGen uint64 // the last generation installed
	health  Health
	lastErr bool // the last reload failed
	chaos   bool
	ids     map[string]bool
	logged  []loggedResponse
	// The counts the metrics must equal. errs counts the 5xx answers the
	// routes made; unseen, the requests answered at a deadline whose route's
	// own answer nobody saw: those not held past it, and serial queries that
	// were.
	panics, chaosPanics, sheds, reloads, failures int
	errs, unseen                                  int
	// cover counts what the stream reached, for the seeded test's floor.
	cover map[string]int
}

type loggedResponse struct {
	id     string
	status int
	where  string
}

func (m *modelRun) errorf(where, format string, args ...any) {
	m.t.Helper()
	m.t.Errorf("step %d: %s: %s", m.step, where, fmt.Sprintf(format, args...))
}

// newModelRun starts a server: one or three shards, no cache, a small one
// or a large one, and either a first store or none (the starting state).
func newModelRun(t testing.TB, seed int64, ops opSource) *modelRun {
	m := &modelRun{
		t: t, ops: ops, kb: rand.New(rand.NewSource(seed)),
		reg: obs.NewRegistry(), gate: &gate{holds: map[string]*hold{}}, log: &syncBuffer{}, dir: t.TempDir(),
		shards: []int{1, 3}[ops.Intn(2)],
		gens:   map[uint64][]store.Fact{}, ids: map[string]bool{}, cover: map[string]int{},
	}
	fault := resilience.StageFault{FailProb: 0.3, Transient: true}
	m.ctl = store.NewChaosController(&resilience.FaultPlan{Seed: seed, Stages: map[string]resilience.StageFault{
		store.ChaosStageEntity: fault, store.ChaosStageTriples: fault, store.ChaosStageLookup: fault,
	}})
	m.ctl.SetEnabled(false)
	cfg := DefaultConfig()
	cfg.MaxInFlight = modelMaxInFlight
	cfg.RequestTimeout = modelTimeout
	cfg.DrainTimeout = 2 * modelWait
	cfg.MaxResults = modelMaxResults
	cfg.CacheSize = []int{0, 4, 1024}[ops.Intn(3)]
	cfg.Reloader = func() (store.Querier, error) { return m.next() }
	cfg.WrapQuerier = func(q store.Querier) store.Querier {
		if m.onWrap != nil {
			m.onWrap()
		}
		return gateQuerier{m.ctl.Wrap(q), m.gate, q}
	}
	cfg.AccessLog = slog.New(slog.NewJSONHandler(m.log, nil))
	var first store.Querier
	if ops.Intn(4) > 0 {
		facts := m.goodFacts()
		first = store.NewSharded(facts, m.shards)
		m.lastGen, m.gen, m.gens[1], m.health = 1, 1, facts, HealthServing
	}
	m.s = New(first, m.reg, cfg)
	m.h = m.s.Handler()
	t.Cleanup(func() {
		// A run that stopped early must not leave requests parked.
		m.gate.mu.Lock()
		defer m.gate.mu.Unlock()
		for _, h := range m.gate.holds {
			select {
			case <-h.release:
			default:
				close(h.release)
			}
		}
	})
	return m
}

func (m *modelRun) goodFacts() []store.Fact {
	m.stamp++
	return modelFacts(m.kb, m.stamp)
}

func (m *modelRun) state() modelState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return modelState{gen: m.gen, allowed: []uint64{m.gen}, health: m.health, held: len(m.held), chaos: m.chaos}
}

// request builds the http.Request of a call.
func (c *call) request(ctx context.Context) *http.Request {
	var body io.Reader
	if c.body != "" {
		body = strings.NewReader(c.body)
	}
	req := httptest.NewRequest(c.method, c.target, body).WithContext(ctx)
	if c.inbound != "" {
		req.Header.Set(RequestIDHeader, c.inbound)
	}
	return req
}

// do sends a call through the handler and returns what the client saw.
func (m *modelRun) do(c *call) response {
	ctx := context.Background()
	switch {
	case c.poison:
		ctx = poisonedCtx{ctx}
	case c.cancel:
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		ctx = cctx
	}
	rec := newModelRecorder()
	start := time.Now()
	m.h.ServeHTTP(rec, c.request(ctx))
	return rec.response(start)
}

func (m *modelRun) send(c *call) {
	st := m.state()
	m.judge(c, st, m.do(c))
}

// envelope reports whether body is the error envelope of status.
func envelope(body []byte, status int) (string, bool) {
	var e struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil || e.Error == "" || e.Status != status {
		return "", false
	}
	return e.Error, true
}

// judge holds one response to the model.
func (m *modelRun) judge(c *call, st modelState, res response) {
	m.t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	where := c.method + " " + c.target
	m.checkID(where, c, res)

	// Overload: with every slot held, the request is shed before anything
	// else sees it; below that, never.
	if st.held >= modelMaxInFlight || res.status == http.StatusTooManyRequests {
		_, ok := envelope(res.body, http.StatusTooManyRequests)
		_, err := strconv.Atoi(res.header.Get("Retry-After"))
		switch {
		case st.held < modelMaxInFlight:
			m.errorf(where, "shed with %d of %d slots held", st.held, modelMaxInFlight)
		case res.status != http.StatusTooManyRequests || !ok || err != nil:
			m.errorf(where, "every slot is held: got %d %q Retry-After %q, want the 429 envelope and a number of seconds",
				res.status, res.body, res.header.Get("Retry-After"))
		}
		m.sheds++
		m.cover["shed"]++
		return
	}
	// The deadline: a 503 with the timeout envelope, only once it passed.
	// Behind it, a held datalog query's route answers 503 too, when its
	// executor sees the deadline.
	if res.status == http.StatusServiceUnavailable && string(res.body) == timeoutBody {
		if res.elapsed < modelTimeout {
			m.errorf(where, "timed out after %v, before the %v deadline", res.elapsed, modelTimeout)
		}
		switch {
		case !c.mustTimeout || c.serial:
			m.unseen++
		case c.datalog:
			m.errs++
		}
		m.cover["timeout"]++
		return
	}
	if c.mustTimeout {
		m.errorf(where, "held past its deadline, answered %d %q instead of the timeout", res.status, res.body)
		return
	}
	// Injected panics: a 500 envelope that names the fault.
	if c.poison {
		if msg, ok := envelope(res.body, http.StatusInternalServerError); res.status != http.StatusInternalServerError || !ok || !strings.Contains(msg, "poisoned") {
			m.errorf(where, "poisoned request answered %d %q, want the recovered 500", res.status, res.body)
		}
		m.panics++
		m.cover["poison"]++
		return
	}
	if res.status == http.StatusInternalServerError && c.reads {
		if msg, ok := envelope(res.body, res.status); !st.chaos || !ok || !strings.Contains(msg, resilience.ErrInjected.Error()) {
			m.errorf(where, "500 %q without an injected fault (injection on: %v)", res.body, st.chaos)
		}
		m.panics++
		m.chaosPanics++
		m.errs++
		m.cover["chaos"]++
		return
	}
	// A query whose client has gone is no server error.
	if c.cancel && c.datalog && res.status == statusClientClosedRequest {
		if _, ok := envelope(res.body, res.status); !ok {
			m.errorf(where, "cancelled query answered %d %q", res.status, res.body)
		}
		m.cover["cancelled"]++
		return
	}

	switch c.kind {
	case kindData:
		m.judgeData(where, c, st, res)
	case kindHealthz, kindReadyz:
		m.judgeHealth(where, c, st, res)
	case kindMetrics:
		var body struct {
			Metrics []obs.Metric `json:"metrics"`
		}
		if res.status != http.StatusOK || json.Unmarshal(res.body, &body) != nil {
			m.errorf(where, "%d %q, want the metrics", res.status, res.body)
			return
		}
		got := map[string]float64{}
		for _, mt := range body.Metrics {
			if len(mt.Labels) == 0 {
				got[mt.Name] = mt.Value
			}
		}
		// The scrape itself holds a slot.
		m.checkMetrics(where, got, st.held+1)
	case kindProm:
		if res.status != http.StatusOK || res.header.Get("Content-Type") != obs.PromContentType ||
			!bytes.Contains(res.body, []byte("\nakb_serve_store_generation "+strconv.FormatUint(st.gen, 10)+"\n")) {
			m.errorf(where, "%d %q, want the exposition at generation %d", res.status, res.body, st.gen)
		}
	case kindReload, kindFixed:
		want := c.want(nil, 0)
		if want.status >= http.StatusInternalServerError {
			m.errs++
		}
		m.judgeAnswer(where, want, res, 0)
	}
}

func (m *modelRun) checkID(where string, c *call, res response) {
	id := res.header.Get(RequestIDHeader)
	switch {
	case id == "":
		m.errorf(where, "%d without an X-Request-ID", res.status)
	case c.inbound != "" && len(c.inbound) <= maxRequestIDLen && id != c.inbound:
		m.errorf(where, "X-Request-ID %q, want the client's %q", id, c.inbound)
	case len(c.inbound) > maxRequestIDLen && id == c.inbound:
		m.errorf(where, "an overlong client X-Request-ID was adopted")
	case m.ids[id]:
		m.errorf(where, "X-Request-ID %q answered twice", id)
	}
	m.ids[id] = true
	m.logged = append(m.logged, loggedResponse{id, res.status, where})
}

// judgeData holds a data route's response to the generation it names.
func (m *modelRun) judgeData(where string, c *call, st modelState, res response) {
	hdr := res.header.Get("X-Akb-Generation")
	if hdr == "" {
		// Only a server without a store answers a data route without a
		// generation, and then with a 503.
		if !slices.Contains(st.allowed, 0) {
			m.errorf(where, "%d %q without a generation", res.status, res.body)
		} else if _, ok := envelope(res.body, http.StatusServiceUnavailable); res.status != http.StatusServiceUnavailable || !ok {
			m.errorf(where, "before the first store: %d %q, want the 503 envelope", res.status, res.body)
		}
		// The datalog route answers it itself; the others' is written
		// before their route runs, and is not counted.
		if c.datalog {
			m.errs++
		}
		m.cover["starting"]++
		return
	}
	gen, err := strconv.ParseUint(hdr, 10, 64)
	if err != nil || gen == 0 || !slices.Contains(st.allowed, gen) {
		m.errorf(where, "X-Akb-Generation %q, want one of %v", hdr, st.allowed)
		return
	}
	m.judgeAnswer(where, c.want(m.gens[gen], gen), res, gen)
}

func (m *modelRun) judgeAnswer(where string, want answer, res response, gen uint64) {
	switch {
	case res.status != want.status:
		m.errorf(where, "status %d %q, want %d", res.status, res.body, want.status)
	case want.check != nil:
		if msg := want.check(res.body, gen); msg != "" {
			m.errorf(where, "%s in %q", msg, res.body)
		}
	case want.body != nil:
		if !bytes.Equal(res.body, want.body) {
			m.errorf(where, "generation %d:\n got %q\nwant %q", gen, res.body, want.body)
		}
	default:
		if _, ok := envelope(res.body, want.status); !ok {
			m.errorf(where, "%d %q is not the error envelope", res.status, res.body)
		}
	}
}

func (m *modelRun) judgeHealth(where string, c *call, st modelState, res response) {
	want := http.StatusOK
	if c.kind == kindReadyz && !st.health.ready() {
		want = http.StatusServiceUnavailable
		m.errs++
	}
	var body healthzBody
	if res.status != want || json.Unmarshal(res.body, &body) != nil {
		m.errorf(where, "%d %q in state %s, want %d", res.status, res.body, st.health, want)
		return
	}
	facts := m.gens[st.gen]
	if body.Status != st.health.String() || body.Ready != st.health.ready() || body.Generation != st.gen ||
		body.Facts != len(facts) || body.Entities != entityCount(facts) || (body.LastReloadError != "") != m.lastErr {
		m.errorf(where, "%+v, want state %s at generation %d (%d facts, %d entities), last reload failed: %v",
			body, st.health, st.gen, len(facts), entityCount(facts), m.lastErr)
	}
	if hdr, want := res.header.Get("X-Akb-Generation"), strconv.FormatUint(st.gen, 10); st.gen > 0 && hdr != want {
		m.errorf(where, "X-Akb-Generation %q, want %s", hdr, want)
	}
	if st.health == HealthDraining {
		m.cover["draining"]++
	}
}

// checkMetrics compares the metrics with the model's counts. The error
// count is exact unless a request was answered at a deadline it was not
// held past: each of those may add one.
func (m *modelRun) checkMetrics(where string, got map[string]float64, inflight int) {
	if e := got["akb_serve_errors_total"]; e < float64(m.errs) || e > float64(m.errs+m.unseen) {
		m.errorf(where, "akb_serve_errors_total = %v, the model says %d (%d more unseen)", e, m.errs, m.unseen)
	}
	for name, want := range map[string]float64{
		"akb_serve_inflight":              float64(inflight),
		"akb_serve_store_generation":      float64(m.gen),
		"akb_serve_health_state":          float64(m.health),
		"akb_serve_panics":                float64(m.panics),
		"akb_serve_shed_total":            float64(m.sheds),
		"akb_serve_reloads_total":         float64(m.reloads),
		"akb_serve_reload_failures_total": float64(m.failures),
	} {
		if got[name] != want {
			m.errorf(where, "%s = %v, the model says %v", name, got[name], want)
		}
	}
}

// The calls. Names come from the pool, its underscore spellings and one
// name no KB has.

func pick[T any](r opSource, xs ...T) T { return xs[r.Intn(len(xs))] }

func poolName(r opSource) string {
	if r.Intn(8) == 0 {
		return "absent"
	}
	return pick(r, modelNames...)
}

// resolve is the routes' entity naming: the name itself if it is an
// entity, else its underscores read as spaces.
func resolve(facts []store.Fact, raw string) string {
	if slices.ContainsFunc(facts, func(f store.Fact) bool { return f.Entity == raw }) {
		return raw
	}
	return strings.ReplaceAll(raw, "_", " ")
}

func entityCall(raw string) *call {
	return &call{method: http.MethodGet, target: "/v1/entity/" + url.PathEscape(raw), kind: kindData, reads: true,
		want: func(facts []store.Fact, _ uint64) answer {
			id := resolve(facts, raw)
			sel := selectFacts(facts, func(f *store.Fact) bool { return f.Entity == id })
			if len(sel) == 0 {
				return answer{status: http.StatusNotFound}
			}
			body, _ := refEntity(id, sel)
			return answer{status: http.StatusOK, body: append(body, '\n')}
		}}
}

func triplesCall(rawEntity, rawAttr string) *call {
	return &call{method: http.MethodGet, target: "/v1/triples/" + url.PathEscape(rawEntity) + "/" + url.PathEscape(rawAttr),
		kind: kindData, reads: true,
		want: func(facts []store.Fact, _ uint64) answer {
			entity, attr := resolve(facts, rawEntity), rawAttr
			of := func(attr string) []store.Fact {
				return selectFacts(facts, func(f *store.Fact) bool { return f.Entity == entity && f.Attr == attr })
			}
			sel := of(attr)
			if len(sel) == 0 {
				attr = strings.ReplaceAll(attr, "_", " ")
				sel = of(attr)
			}
			if len(sel) == 0 {
				return answer{status: http.StatusNotFound}
			}
			body, _ := refTriples(entity, attr, sel)
			return answer{status: http.StatusOK, body: append(body, '\n')}
		}}
}

// queryCall draws /v1/query parameters: a value matches through the
// ancestors; no field, an unknown parameter or a bad limit is a 400.
func queryCall(r opSource) *call {
	qs := url.Values{}
	for _, field := range []string{"entity", "class", "attr", "value"} {
		if r.Intn(3) == 0 {
			qs.Set(field, poolName(r))
		}
	}
	if r.Intn(3) == 0 {
		qs.Set("limit", pick(r, "1", "2", "5", "40", "0", "-3", "x"))
	}
	if r.Intn(12) == 0 {
		qs.Set("claas", "x")
	}
	return queryCallFor(qs)
}

func queryCallFor(qs url.Values) *call {
	return &call{method: http.MethodGet, target: "/v1/query?" + qs.Encode(), kind: kindData, reads: true,
		want: func(facts []store.Fact, gen uint64) answer {
			p := store.Pattern{Entity: qs.Get("entity"), Class: qs.Get("class"), Attr: qs.Get("attr"), Value: qs.Get("value")}
			limit, err := modelMaxResults, error(nil)
			if raw := qs.Get("limit"); raw != "" {
				var n int
				if n, err = strconv.Atoi(raw); err == nil && n <= 0 {
					err = strconv.ErrRange
				}
				limit = min(limit, n)
			}
			if qs.Has("claas") || p == (store.Pattern{}) || err != nil {
				return answer{status: http.StatusBadRequest}
			}
			sel := selectFacts(facts, func(f *store.Fact) bool {
				return (p.Entity == "" || f.Entity == p.Entity) && (p.Class == "" || f.Class == p.Class) &&
					(p.Attr == "" || f.Attr == p.Attr) &&
					(p.Value == "" || f.Value == p.Value || slices.Contains(f.Ancestors, p.Value))
			})
			body, _ := refQuery(gen, len(sel), sel[:min(limit, len(sel))])
			return answer{status: http.StatusOK, body: append(body, '\n')}
		}}
}

// datalogName draws a constant: JSON carries the query text, and invalid
// UTF-8 would not survive it.
func datalogName(r opSource) string {
	for {
		if s := poolName(r); utf8.ValidString(s) {
			return s
		}
	}
}

// datalogCall draws a conjunctive query of one to three clauses — entity
// joins, value joins, attribute variables, constants matched through the
// hierarchy, class restrictions — with or without a select list, a limit
// and explain; or a body the route must refuse.
func datalogCall(r opSource) *call {
	c := &call{method: http.MethodPost, target: "/v1/datalog", kind: kindData, reads: true, datalog: true}
	if r.Intn(6) == 0 {
		c.body = pick(r, `not json`, `{"query": "?e ?a"}`, `{"query": "?e a ?v", "limit": -1}`,
			`{"query": "?e a ?v", "clauses": ["?e a ?v"]}`, `{"query": "?e a ?v", "bogus": 1}`,
			`{"query": "?e a ?v", "select": ["nope"]}`, `{"query": "?e a ?v", "parallelism": 99}`)
		c.want = func([]store.Fact, uint64) answer { return answer{status: http.StatusBadRequest} }
		return c
	}
	var q datalog.Query
	for n := 1 + r.Intn(3); n > 0; n-- {
		var cl datalog.Clause
		switch r.Intn(6) {
		case 0:
			cl.Entity = datalog.C(datalogName(r))
		case 1:
			cl.Entity = datalog.V("v")
		default:
			cl.Entity = datalog.V(pick(r, "e", "f"))
		}
		if cl.Entity.IsVar() && r.Intn(4) == 0 {
			if class := datalogName(r); !strings.ContainsAny(class, " \t\r\n") {
				cl.Class = class
			}
		}
		if r.Intn(5) == 0 {
			cl.Attr = datalog.V("a")
		} else {
			cl.Attr = datalog.C(datalogName(r))
		}
		switch r.Intn(4) {
		case 0:
			cl.Value = datalog.C(datalogName(r))
		case 1:
			cl.Value = datalog.V("e")
		default:
			cl.Value = datalog.V(pick(r, "v", "w"))
		}
		q.Clauses = append(q.Clauses, cl)
	}
	req := datalogRequest{Limit: []int{0, 1, 2, 50}[r.Intn(4)], Explain: r.Intn(2) == 0}
	if vars := q.Vars(); len(vars) > 1 && r.Intn(3) == 0 {
		for _, i := range rand.New(rand.NewSource(int64(r.Intn(1 << 16)))).Perm(len(vars))[:1+r.Intn(len(vars)-1)] {
			req.Select = append(req.Select, vars[i])
		}
	}
	if r.Intn(3) == 0 {
		for _, cl := range q.Clauses {
			req.Clauses = append(req.Clauses, cl.String())
		}
	} else {
		req.Query = q.String()
	}
	raw, _ := json.Marshal(req)
	c.body = string(raw)
	c.want = func(facts []store.Fact, _ uint64) answer {
		return answer{status: http.StatusOK, check: func(body []byte, gen uint64) string { return checkDatalog(facts, q, req, body, gen) }}
	}
	return c
}

// viaJSON is s as a JSON answer gives it back: invalid UTF-8 replaced.
func viaJSON(s string) string {
	raw, _ := json.Marshal(s)
	var out string
	json.Unmarshal(raw, &out)
	return out
}

// bruteDatalog is what a query means: a nested loop over the facts, clause
// by clause, a constant value matching through the hierarchy, a variable
// exactly, a class restriction on the clause's own fact. Rows come in no
// promised order.
func bruteDatalog(facts []store.Fact, q datalog.Query, sel []string) [][]string {
	env := map[string]string{}
	var rows [][]string
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Clauses) {
			row := make([]string, len(sel))
			for j, v := range sel {
				row[j] = viaJSON(env[v])
			}
			rows = append(rows, row)
			return
		}
		cl := q.Clauses[i]
		for fi := range facts {
			f := &facts[fi]
			if cl.Class != "" && f.Class != cl.Class {
				continue
			}
			var bound []string
			unify := func(t datalog.Term, field string, ancestors []string) bool {
				if !t.IsVar() {
					return field == t.Const || slices.Contains(ancestors, t.Const)
				}
				if v, ok := env[t.Var]; ok {
					return v == field
				}
				env[t.Var] = field
				bound = append(bound, t.Var)
				return true
			}
			if unify(cl.Entity, f.Entity, nil) && unify(cl.Attr, f.Attr, nil) && unify(cl.Value, f.Value, f.Ancestors) {
				rec(i + 1)
			}
			for _, v := range bound {
				delete(env, v)
			}
		}
	}
	rec(0)
	return rows
}

// checkDatalog holds an answer to the brute-force rows: the exact total,
// a page of the right size whose every row is one of them — all of them
// when nothing was cut — the query as parsed, and a plan only on request.
func checkDatalog(facts []store.Fact, q datalog.Query, req datalogRequest, body []byte, gen uint64) string {
	var got struct {
		Generation uint64              `json:"generation"`
		Query      string              `json:"query"`
		Plan       []string            `json:"plan"`
		Vars       []string            `json:"vars"`
		Count      int                 `json:"count"`
		Total      int                 `json:"total"`
		Truncated  bool                `json:"truncated"`
		Bindings   []map[string]string `json:"bindings"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		return err.Error()
	}
	sel := req.Select
	if len(sel) == 0 {
		sel = q.Vars()
	}
	want := bruteDatalog(facts, q, sel)
	limit := modelMaxResults
	if req.Limit > 0 {
		limit = min(limit, req.Limit)
	}
	switch {
	case got.Generation != gen:
		return fmt.Sprintf("generation %d in the body of generation %d", got.Generation, gen)
	case got.Query != q.String():
		return fmt.Sprintf("query %q, want %q", got.Query, q.String())
	case (len(got.Plan) > 0) != req.Explain:
		return fmt.Sprintf("plan %q with explain %v", got.Plan, req.Explain)
	case !slices.Equal(got.Vars, sel):
		return fmt.Sprintf("vars %q, want %q", got.Vars, sel)
	case got.Total != len(want) || got.Count != min(limit, len(want)) || got.Count != len(got.Bindings) || got.Truncated != (got.Total > got.Count):
		return fmt.Sprintf("count %d of %d (truncated %v), brute force has %d rows, page %d", got.Count, got.Total, got.Truncated, len(want), limit)
	}
	left := map[string]int{}
	for _, row := range want {
		left[fmt.Sprintf("%q", row)]++
	}
	for _, b := range got.Bindings {
		row := make([]string, len(sel))
		for i, v := range sel {
			row[i] = b[v]
		}
		if k := fmt.Sprintf("%q", row); left[k] > 0 {
			left[k]--
		} else {
			return fmt.Sprintf("row %q is not the brute force's (or too often)", row)
		}
	}
	return ""
}

// readCall draws a read of any route.
func readCall(r opSource) *call {
	switch r.Intn(12) {
	case 0, 1:
		return entityCall(pick(r, stampEntity, "a_b", poolName(r)))
	case 2, 3:
		return triplesCall(pick(r, stampEntity, poolName(r)), pick(r, "stamp", poolName(r)))
	case 4, 5:
		return queryCall(r)
	case 6:
		return &call{method: http.MethodGet, target: "/healthz", kind: kindHealthz}
	case 7:
		return &call{method: http.MethodGet, target: "/readyz", kind: kindReadyz}
	case 8:
		return &call{method: http.MethodGet, target: "/metrics", kind: kindMetrics}
	case 9:
		return &call{method: http.MethodGet, target: "/metrics?format=prom", kind: kindProm}
	case 10:
		fixed := func(status int) func([]store.Fact, uint64) answer {
			return func([]store.Fact, uint64) answer { return answer{status: status} }
		}
		return pick(r,
			&call{method: http.MethodGet, target: "/v1/nope", kind: kindFixed, want: fixed(http.StatusNotFound)},
			&call{method: http.MethodGet, target: "/v1/datalog", kind: kindFixed, want: fixed(http.StatusMethodNotAllowed)},
			&call{method: http.MethodPost, target: "/v1/entity/a", kind: kindFixed, want: fixed(http.StatusMethodNotAllowed)})
	default:
		return datalogCall(r)
	}
}

// dataCall draws a read of the data routes only: what readers send while a
// reload swaps the generation under them.
func dataCall(r opSource) *call {
	switch r.Intn(4) {
	case 0:
		return entityCall(pick(r, stampEntity, "a_b", poolName(r)))
	case 1:
		return triplesCall(pick(r, stampEntity, poolName(r)), pick(r, "stamp", poolName(r)))
	case 2:
		return queryCall(r)
	}
	return datalogCall(r)
}

// The operations.

func (m *modelRun) run() {
	for m.ops.More() {
		m.step++
		switch k := m.ops.Intn(20); {
		case k < 7:
			m.send(readCall(m.ops))
		case k < 9:
			m.send(datalogCall(m.ops))
		case k < 11:
			m.startHold(m.ops.Intn(holdRoutes))
		case k == 11:
			m.releaseHold()
		case k == 12:
			m.cancelMidRead()
		case k == 13:
			c := dataCall(m.ops)
			c.cancel = true
			m.send(c)
		case k < 16:
			m.reload(m.ops.Intn(2) == 0)
		case k == 16:
			m.reloadUnderLoad()
		case k == 17:
			m.mu.Lock()
			m.chaos = !m.chaos
			m.ctl.SetEnabled(m.chaos)
			m.mu.Unlock()
		case k == 18:
			c := readCall(m.ops)
			c.poison = true
			m.send(c)
		default:
			c := readCall(m.ops)
			if c.inbound = fmt.Sprintf("client-%d", m.step); m.ops.Intn(4) == 0 {
				c.inbound = strings.Repeat("x", maxRequestIDLen+1)
			}
			m.send(c)
		}
	}
}

// The routes a hold reads through: the entity route, or a query run
// serially or on two workers. The two-worker executor reports a cancelled
// context however small the KB, so such a held query always sees its
// deadline or its gone client; a serial one may not.
const (
	holdEntity = iota
	holdSerialQuery
	holdParallelQuery
	holdRoutes
)

// holdCall is a read of a hold name through one of the hold routes.
func holdCall(name string, route int) *call {
	if route == holdEntity {
		return entityCall(name)
	}
	q := datalog.Query{Clauses: []datalog.Clause{{Entity: datalog.C(name), Attr: datalog.V("a"), Value: datalog.V("v")}}}
	req := datalogRequest{Query: q.String()}
	if route == holdParallelQuery {
		req.Parallelism = 2
	}
	raw, _ := json.Marshal(req)
	return &call{method: http.MethodPost, target: "/v1/datalog", body: string(raw), kind: kindData, reads: true,
		datalog: true, serial: req.Parallelism == 0,
		want: func(facts []store.Fact, _ uint64) answer {
			return answer{status: http.StatusOK, check: func(body []byte, gen uint64) string {
				return checkDatalog(facts, q, datalogRequest{}, body, gen)
			}}
		}}
}

// park sends a read of a fresh hold name and waits until it is parked at
// the gate, holding a slot. It returns nil when the request was answered
// without reaching the gate (judged, then).
func (m *modelRun) park(route int, serve func(h *hold, req *http.Request)) *hold {
	m.holds++
	h := &hold{name: fmt.Sprintf("%s%d", holdPrefix, m.holds), rec: newModelRecorder(), st: m.state(),
		arrived: make(chan struct{}), release: make(chan struct{}), done: make(chan struct{})}
	h.c = holdCall(h.name, route)
	m.gate.mu.Lock()
	m.gate.holds[h.name] = h
	m.gate.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	req := h.c.request(ctx)
	h.start = time.Now()
	go func() {
		defer close(h.done)
		serve(h, req)
	}()
	select {
	case <-h.arrived:
		return h
	case <-h.done:
		cancel()
		m.judge(h.c, h.st, h.rec.response(h.start))
	case <-time.After(modelWait):
		m.t.Fatalf("step %d: %s never reached the store", m.step, h.name)
	}
	return nil
}

// startHold parks a request past its deadline. With every slot held, or
// before the first store, a request cannot park: it is sent as a plain one.
func (m *modelRun) startHold(route int) {
	if len(m.held) >= modelMaxInFlight || m.gen == 0 {
		m.send(holdCall("absent", route))
		return
	}
	h := m.park(route, func(h *hold, req *http.Request) { m.h.ServeHTTP(h.rec, req) })
	if h != nil {
		h.c.mustTimeout = true
		m.held = append(m.held, h)
	}
}

// releaseHold waits for the oldest held request's deadline answer, then
// lets its handler return and its slot go.
func (m *modelRun) releaseHold() {
	if len(m.held) == 0 {
		return
	}
	h := m.held[0]
	m.held = m.held[1:]
	select {
	case <-h.rec.wrote:
	case <-time.After(modelWait):
		m.errorf(h.c.target, "held request not answered at its deadline")
	}
	close(h.release)
	m.wait(h.done, h.name+" returned")
	h.cancel()
	m.judge(h.c, h.st, h.rec.response(h.start))
}

// cancelMidRead cancels a request while its read is parked, then lets the
// read go on: its slot must come back, and its answer be the route's.
func (m *modelRun) cancelMidRead() {
	if len(m.held) >= modelMaxInFlight || m.gen == 0 {
		return
	}
	h := m.park(m.ops.Intn(holdRoutes), func(h *hold, req *http.Request) { m.h.ServeHTTP(h.rec, req) })
	if h == nil {
		return
	}
	h.cancel()
	close(h.release)
	m.wait(h.done, h.name+" returned")
	h.c.cancel = true
	m.judge(h.c, h.st, h.rec.response(h.start))
	m.mu.Lock()
	m.cover["cancelled mid-read"]++
	m.mu.Unlock()
}

func (m *modelRun) wait(ch <-chan struct{}, what string) {
	select {
	case <-ch:
	case <-time.After(modelWait):
		m.t.Fatalf("step %d: waited %v for: %s", m.step, modelWait, what)
	}
}

// prepareReload sets what the reloader returns next and says whether the
// reload succeeds, with the facts it installs: a good store in memory or
// through a snapshot file, a corrupt snapshot file, an empty store, or a
// loader error.
func (m *modelRun) prepareReload() (ok bool, facts []store.Fact) {
	path := filepath.Join(m.dir, fmt.Sprintf("kb-%d.akb", m.step))
	switch kind := m.ops.Intn(6); kind {
	case 0, 1, 2:
		facts = m.goodFacts()
		st := store.NewSharded(facts, m.shards)
		if kind == 0 {
			m.next = func() (store.Querier, error) { return st, nil }
			return true, facts
		}
		if err := st.WriteBinarySnapshotFile(path); err != nil {
			m.t.Fatal(err)
		}
		if kind == 2 {
			raw, err := os.ReadFile(path)
			if err != nil {
				m.t.Fatal(err)
			}
			raw[len(raw)/2] ^= 1
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				m.t.Fatal(err)
			}
			facts = nil
		}
		m.next = func() (store.Querier, error) {
			q, _, err := store.OpenSnapshotFile(path, m.shards)
			return q, err
		}
		return kind == 1, facts
	case 3:
		m.next = func() (store.Querier, error) { return store.New(nil), nil }
	default:
		m.next = func() (store.Querier, error) { return nil, fmt.Errorf("loader failed at step %d", m.step) }
	}
	return false, nil
}

// applyReload moves the model: a good store is the next generation and
// heals the server; a failure degrades a serving one and is remembered.
func (m *modelRun) applyReload(ok bool, facts []store.Fact) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !ok {
		m.failures++
		m.lastErr = true
		if m.health == HealthServing {
			m.health = HealthDegraded
		}
		m.cover["reload failed"]++
		return
	}
	m.lastGen++
	m.gen = m.lastGen
	m.gens[m.gen] = facts
	m.health = HealthServing
	m.lastErr = false
	m.reloads++
	m.cover["reload"]++
}

// reload swaps in the next store, by a call or through the admin route.
func (m *modelRun) reload(admin bool) {
	ok, facts := m.prepareReload()
	if !admin {
		info, err := m.s.Reload()
		want := ReloadInfo{Generation: m.lastGen + 1, Facts: len(facts), Entities: entityCount(facts)}
		if (err == nil) != ok || ok && info != want {
			m.errorf("Reload", "got %+v, %v; want success %v with %+v", info, err, ok, want)
		}
		m.applyReload(ok, facts)
		return
	}
	c := &call{method: http.MethodPost, target: "/v1/admin/reload", kind: kindReload}
	gen := m.lastGen + 1
	c.want = func([]store.Fact, uint64) answer {
		if !ok {
			return answer{status: http.StatusInternalServerError}
		}
		return answer{status: http.StatusOK, check: func(body []byte, _ uint64) string {
			want := fmt.Sprintf(`{"status":"reloaded","generation":%d,"facts":%d,"entities":%d}`+"\n", gen, len(facts), entityCount(facts))
			if string(body) != want {
				return "want " + want
			}
			return ""
		}}
	}
	st := m.state()
	res := m.do(c)
	// A shed request reloads nothing; any other ran the reload to its end,
	// whatever the client was told.
	if st.held < modelMaxInFlight {
		m.applyReload(ok, facts)
	}
	m.judge(c, st, res)
}

// reloadUnderLoad reloads while readers fill every free slot: each of
// their answers must be the whole answer of the old generation or of the
// new one.
func (m *modelRun) reloadUnderLoad() {
	readers := modelMaxInFlight - len(m.held)
	ok, facts := m.prepareReload()
	st := m.state()
	if ok {
		m.mu.Lock()
		m.gens[m.lastGen+1] = facts
		m.mu.Unlock()
		st.allowed = append(st.allowed, m.lastGen+1)
	}
	stop := make(chan struct{})
	var started, wg sync.WaitGroup
	var served atomic.Int64
	started.Add(readers)
	for i := 0; i < readers; i++ {
		r := &seededOps{Rand: rand.New(rand.NewSource(int64(m.step*modelMaxInFlight + i)))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if n == 1 {
					started.Done()
				}
				if n >= 2 {
					select {
					case <-stop:
						return
					default:
					}
				}
				c := dataCall(r)
				m.judge(c, st, m.do(c))
				served.Add(1)
			}
		}()
	}
	started.Wait()
	// While the reload prepares the new store, each reader is answered
	// once more: until the swap, from the old generation, whole.
	m.onWrap = func() {
		want, deadline := served.Load()+int64(readers), time.Now().Add(modelWait)
		for served.Load() < want {
			if time.Now().After(deadline) {
				m.errorf("Reload under load", "readers stalled while the new store was prepared")
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	_, err := m.s.Reload()
	m.onWrap = nil
	close(stop)
	wg.Wait()
	if (err == nil) != ok {
		m.errorf("Reload under load", "err %v, want success %v", err, ok)
	}
	m.applyReload(ok, facts)
	if readers > 0 {
		m.mu.Lock()
		m.cover["reload under load"]++
		m.mu.Unlock()
	}
}

// finish ends the stream: every hold released, injection off, a sweep of
// clean reads, then Serve on a loopback listener, shut down with requests
// in flight; then the metrics and the access log.
func (m *modelRun) finish() {
	m.step++
	for len(m.held) > 0 {
		m.releaseHold()
	}
	m.mu.Lock()
	m.chaos = false
	m.ctl.SetEnabled(false)
	m.mu.Unlock()
	for m.gen == 0 {
		m.reload(false)
	}

	// Clean service: every entity, every attribute of it, every class and
	// every value, ancestors included.
	facts := m.gens[m.gen]
	terms := map[string]bool{}
	for i, f := range facts {
		if i == 0 || f.Entity != facts[i-1].Entity {
			m.send(entityCall(f.Entity))
		}
		m.send(triplesCall(f.Entity, f.Attr))
		for _, v := range append([]string{f.Value}, f.Ancestors...) {
			if !terms["value="+v] {
				terms["value="+v] = true
				m.send(queryCallFor(url.Values{"value": {v}}))
			}
		}
		if f.Class != "" && !terms["class="+f.Class] {
			terms["class="+f.Class] = true
			m.send(queryCallFor(url.Values{"class": {f.Class}}))
		}
	}
	m.send(&call{method: http.MethodGet, target: "/metrics", kind: kindMetrics})

	m.serveAndDrain()

	// At rest: nothing in flight, and every count the model's.
	got := map[string]float64{}
	for _, name := range []string{"akb_serve_inflight", "akb_serve_store_generation", "akb_serve_health_state"} {
		got[name] = m.reg.Gauge(name).Value()
	}
	for _, name := range []string{"akb_serve_panics", "akb_serve_shed_total", "akb_serve_reloads_total", "akb_serve_reload_failures_total", "akb_serve_errors_total"} {
		got[name] = float64(m.reg.Counter(name).Value())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkMetrics("at rest", got, 0)
	if n := m.ctl.Panics(); int(n) != m.chaosPanics {
		m.errorf("at rest", "%d injected panics, %d answered as the 500 that names one", n, m.chaosPanics)
	}
	m.checkAccessLog()
}

// serveAndDrain runs Serve on a loopback listener: reads over a real
// connection, then requests parked past their deadline while Serve shuts
// down. Serve must wait for them, /readyz must say draining, and it must
// return cleanly once they finish.
func (m *modelRun) serveAndDrain() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- m.s.Serve(ctx, ln) }()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: modelWait}
	base := "http://" + ln.Addr().String()
	roundTrip := func(c *call, req *http.Request) response {
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			m.errorf(c.target, "over the listener: %v", err)
			return response{}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			m.errorf(c.target, "reading the body: %v", err)
		}
		return response{status: resp.StatusCode, header: resp.Header, body: body, elapsed: time.Since(start)}
	}
	over := func(c *call) {
		req, err := http.NewRequest(c.method, base+c.target, strings.NewReader(c.body))
		if err != nil {
			m.t.Fatal(err)
		}
		st := m.state()
		m.judge(c, st, roundTrip(c, req))
	}
	over(&call{method: http.MethodGet, target: "/healthz", kind: kindHealthz})
	over(entityCall(stampEntity))
	over(datalogCall(&seededOps{Rand: rand.New(rand.NewSource(int64(m.step)))}))

	// modelMaxInFlight-1 requests in flight, answered 503 at their deadline
	// while their handlers are still parked.
	var parked []*hold
	for len(parked) < modelMaxInFlight-1 {
		h := m.park(holdEntity, func(h *hold, req *http.Request) {
			out, err := http.NewRequest(req.Method, base+req.URL.RequestURI(), nil)
			if err != nil {
				m.t.Error(err)
				return
			}
			res := roundTrip(h.c, out)
			h.rec.mu.Lock()
			h.rec.status, h.rec.sent, h.rec.wroteAt = res.status, res.header, h.start.Add(res.elapsed)
			h.rec.body.Write(res.body)
			h.rec.mu.Unlock()
		})
		if h == nil {
			m.t.Fatal("a request over the listener did not reach the store")
		}
		h.c.mustTimeout = true
		parked = append(parked, h)
	}
	for _, h := range parked {
		m.wait(h.done, h.name+" answered at its deadline")
		m.judge(h.c, h.st, h.rec.response(h.start))
	}

	cancel()
	for deadline := time.Now().Add(modelWait); m.s.Health() != HealthDraining; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			m.t.Fatal("Serve did not start draining")
		}
	}
	m.mu.Lock()
	m.health = HealthDraining
	m.held = parked
	m.mu.Unlock()
	m.send(&call{method: http.MethodGet, target: "/readyz", kind: kindReadyz})
	m.send(&call{method: http.MethodGet, target: "/healthz", kind: kindHealthz})
	select {
	case err := <-served:
		m.errorf("Serve", "returned %v with %d requests in flight", err, len(parked))
		return
	case <-time.After(20 * time.Millisecond):
	}
	for _, h := range parked {
		close(h.release)
		h.cancel()
	}
	m.held = nil
	select {
	case err := <-served:
		if err != nil {
			m.errorf("Serve", "drained with %v", err)
		}
	case <-time.After(2 * modelWait):
		m.t.Fatal("Serve did not return once its requests finished")
	}
}

// checkAccessLog: every response was logged once, under its request ID,
// with the status the client saw.
func (m *modelRun) checkAccessLog() {
	records := map[string][]int{}
	lines := strings.Split(strings.TrimSpace(m.log.String()), "\n")
	for _, line := range lines {
		var rec struct {
			ID     string `json:"id"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			m.errorf("access log", "%q: %v", line, err)
			continue
		}
		records[rec.ID] = append(records[rec.ID], rec.Status)
	}
	for _, r := range m.logged {
		if got := records[r.id]; len(got) != 1 || got[0] != r.status {
			m.errorf(r.where, "answered %d under X-Request-ID %q, logged under it as %v", r.status, r.id, got)
		}
	}
	if len(lines) != len(m.logged) {
		m.errorf("access log", "%d records for %d responses", len(lines), len(m.logged))
	}
}

// runModel runs one stream to its end and returns what it reached.
func runModel(t testing.TB, seed int64, ops opSource) map[string]int {
	m := newModelRun(t, seed, ops)
	m.run()
	m.finish()
	return m.cover
}

// TestServerMatchesModel runs seeded streams under the model. Together
// they must reach every behaviour the model rules on: sheds, deadlines,
// injected and poisoned panics, cancelled reads, reloads good and failed
// (under load too), the starting state and the drain.
func TestServerMatchesModel(t *testing.T) {
	cover := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			for k, n := range runModel(t, seed, &seededOps{Rand: rand.New(rand.NewSource(seed)), left: 300}) {
				cover[k] += n
			}
		})
	}
	t.Logf("reached: %v", cover)
	for _, k := range []string{"shed", "timeout", "chaos", "poison", "cancelled mid-read", "cancelled", "reload", "reload failed",
		"reload under load", "starting", "draining"} {
		if cover[k] == 0 {
			t.Errorf("no seed reached %q: %v", k, cover)
		}
	}
}

// FuzzServerMatchesModel lets the fuzzer's bytes choose the server's
// configuration and every operation of the stream; the KB comes from a
// hash of them. An input starts at most modelMaxInFlight goroutines of its
// own beside Serve's.
func FuzzServerMatchesModel(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 1},
		{1, 2, 3, 10, 10, 10, 10, 0, 0, 11, 14, 17, 18, 13, 12, 16, 15},
		[]byte("reloads, holds and sheds: \x0a\x0a\x0a\x0a\x0b\x0e\x0f\x10\x11\x12"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		h := fnv.New64a()
		h.Write(data)
		runModel(t, int64(h.Sum64()), &byteOps{data: data})
	})
}
