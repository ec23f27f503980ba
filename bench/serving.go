package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"akb/internal/datalog"
	"akb/internal/obs"
)

// Span names of the serving journey.
const (
	spanWindowRTT = "window/rtt" // every request of a traced closed-loop window, for trace.overhead_share

	// One sampled request replayed against one layer after another; the
	// spans below are its children.
	spanProbe     = "probe/request"
	spanRTT       = "serve/rtt"        // over a loopback connection
	spanHandler   = "serve/handler"    // into Handler().ServeHTTP, no socket
	spanStoreRead = "serve/store.read" // as a read on the Querier, no handler
	// A datalog request's read is the engine's three steps.
	spanDLParse = "datalog/parse"
	spanDLPlan  = "datalog/plan"
	spanDLExec  = "datalog/exec"

	// One datalog query run with nothing beside it: children parse, plan,
	// exec, and exec once more with two executor workers.
	spanDLProbe   = "probe/datalog"
	spanDLExecPar = "datalog/exec_par2"
)

// sloLimit is the open-loop latency limit, from due time to last byte.
const sloLimit = 2 * time.Millisecond

// serverCounts reads the server's own counters.
type serverCounts struct{ requests, hits, misses, shed float64 }

func (f *fixture) counts() serverCounts {
	c := func(name string) float64 { return float64(f.reg.Counter(name).Value()) }
	return serverCounts{
		requests: c("akb_serve_requests_total"),
		hits:     c("akb_serve_cache_hits_total"),
		misses:   c("akb_serve_cache_misses_total"),
		shed:     c("akb_serve_shed_total"),
	}
}

func (c *serverCounts) addDelta(before, after serverCounts) {
	c.requests += after.requests - before.requests
	c.hits += after.hits - before.hits
	c.misses += after.misses - before.misses
	c.shed += after.shed - before.shed
}

// window counts one serving window's operations (a failed request was
// attempted too) and fails the run when the window could not start or
// answered nothing.
func (r *run) window(res *loopResult, err error) bool {
	if err == nil && res.lat.len() == 0 && res.failed == 0 {
		err = fmt.Errorf("serving window completed no request")
	}
	if err != nil {
		r.op(err)
		return false
	}
	r.attempted += res.lat.len() + res.failed
	r.failed += res.failed
	if res.firstErr != nil {
		r.errs = append(r.errs, res.firstErr.Error())
	}
	return res.failed == 0
}

// warmUp fills the server's cache and the connections' buffers.
func (r *run) warmUp() bool {
	res, err := closedLoop(r.fx.addr, r.fx.traffic, r.share(warmShare), nil)
	return r.window(res, err)
}

// closedRound is one round's closed-loop window against the fixture's
// server over real loopback connections: each connection sends its next
// request when the previous answer arrived — callers that wait for a reply.
// The traced run leaves openShare of the window to the open loop, halves the
// rest and repeats it under one span per request.
func (r *run) closedRound(round int) bool {
	fx := r.fx
	d := r.share(servingShare) / rounds
	if r.tr != nil {
		d = r.share(servingShare-openShare) / rounds / 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := fx.counts()
	res, err := closedLoop(fx.addr, fx.traffic, d, nil)
	c1 := fx.counts()
	runtime.ReadMemStats(&after)
	if !r.window(res, err) {
		return false
	}
	r.closed = append(r.closed, res)
	if r.tr == nil {
		return true
	}
	r.served.addDelta(c0, c1)
	r.heap.alloc += float64(after.TotalAlloc - before.TotalAlloc)
	r.heap.cycles += float64(after.NumGC - before.NumGC)
	r.heap.pauseNS += float64(after.PauseTotalNs - before.PauseTotalNs)

	res, err = closedLoop(fx.addr, fx.traffic, d, func(do func()) { r.tr.span(spanWindowRTT, do) })
	if !r.window(res, err) {
		return false
	}
	r.tracedClosed = append(r.tracedClosed, res)
	return r.servingProbes(round) && r.datalogProbes(round)
}

// openRound is the traced run's open-loop window of the round, at the
// workload's fixed rate: independent users, who do not wait for each other's
// answers. On this box its numbers repeat too badly to carry a bound (the
// generator busy-waits on one of two shared cores; the median moved by 15
// to 35% between quartiles under a bursty neighbour, the tail by more), so
// they are per-layer numbers and the untraced run sends no open-loop
// traffic.
func (r *run) openRound() bool {
	if r.tr == nil {
		return true
	}
	res, err := openLoop(r.fx.addr, r.fx.traffic, r.w.openRate, r.share(openShare)/rounds)
	if !r.window(res, err) {
		return false
	}
	r.open = append(r.open, res)
	return true
}

// best returns the best value of f over the windows: the lowest, or the
// highest when higher is true.
func best(windows []*loopResult, higher bool, f func(*loopResult) float64) float64 {
	vals := make([]float64, len(windows))
	for i, w := range windows {
		vals[i] = f(w)
	}
	if higher {
		return slices.Max(vals)
	}
	return slices.Min(vals)
}

func percentileUS(p float64) func(*loopResult) float64 {
	return func(w *loopResult) float64 { return micros(w.lat.percentile(p)) }
}

// servingFinish reports the serving journey. Every closed-loop number and
// the open loop's median are the best of their rounds' windows (see the note
// on estimators at measure); the open loop's tail numbers are taken over all
// its windows together.
func (r *run) servingFinish() {
	var closedN int
	for _, w := range r.closed {
		closedN += w.lat.len()
	}
	r.samples["closed"] = closedN
	if r.tr == nil {
		r.set("req_per_s", best(r.closed, true, func(w *loopResult) float64 { return float64(w.lat.len()) / w.elapsed.Seconds() }))
		r.set("req_p50_us", best(r.closed, false, percentileUS(50)))
		r.set("req_p95_us", best(r.closed, false, percentileUS(95)))
		return
	}

	n := float64(closedN)
	var bytes int64
	for _, w := range r.closed {
		bytes += w.bytes
	}
	r.set("serve.cache_hit_share", ratio(r.served.hits, r.served.hits+r.served.misses))
	r.set("serve.shed_share", ratio(r.served.shed, r.served.requests))
	r.set("serve.resp_bytes", float64(bytes)/n)
	// Client and server share the process, so these are the heap's cost of
	// a request on both sides of the socket.
	r.set("runtime.alloc_kb_per_op", r.heap.alloc/1e3/n)
	r.set("runtime.gc_cycles", r.heap.cycles)
	r.set("runtime.gc_pause_ms", r.heap.pauseNS/1e6)
	untraced, traced := best(r.closed, false, percentileUS(50)), best(r.tracedClosed, false, percentileUS(50))
	r.set("trace.overhead_share", (traced-untraced)/untraced)
	r.set("client.p99_us", best(r.closed, false, percentileUS(99)))

	var open loopResult
	for _, w := range r.open {
		open.merge(w)
	}
	r.samples["open"] = open.lat.len()
	lateShare := ratio(float64(open.lateGen.len()), float64(open.sends))
	if lateShare > 0.01 {
		r.openUnresolved = true
		r.notes = append(r.notes, fmt.Sprintf(
			"open loop unresolved: the generator sent %.2f%% of requests more than %v after they were due although the connection was idle; the open-loop numbers describe the generator, not the server",
			100*lateShare, lateAfter))
	}
	r.set("client.open_p50_us", best(r.open, false, percentileUS(50)))
	r.set("client.open_p99_us", micros(open.lat.percentile(99)))
	r.set("client.p999_us", micros(open.lat.percentile(99.9)))
	miss := float64(open.failed) + open.lat.shareAbove(sloLimit)*float64(open.lat.len())
	r.set("client.slo_miss_share", ratio(miss, float64(open.lat.len()+open.failed)))
	r.set("gen.late_share", lateShare)
	r.set("gen.late_p99_us", micros(open.lateGen.percentile(99)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nullWriter is the cheapest http.ResponseWriter: the handler probe times
// the handler, not a recorder's buffer growth.
type nullWriter struct {
	h http.Header
	n int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(int)             {}
func (w *nullWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// datalogSteps takes req's query through the engine's three steps as the
// handler does — parse, plan, execute — one span each under ctx's span.
func (f *fixture) datalogSteps(ctx context.Context, req *request) (q datalog.Query, plan *datalog.Plan, res *datalog.Result, err error) {
	under(ctx, spanDLParse, func() { q, err = datalog.Parse(req.query) })
	if err != nil {
		return
	}
	q.Limit = req.limit
	under(ctx, spanDLPlan, func() { plan, err = datalog.PlanQuery(q, f.sharded) })
	if err != nil {
		return
	}
	under(ctx, spanDLExec, func() { res, err = datalog.RunPlan(context.Background(), f.sharded, q, plan, datalog.Options{}) })
	return
}

// storeRead is a request's read, called on the Querier with no HTTP around
// it, under ctx's span.
func (f *fixture) storeRead(ctx context.Context, req *request) error {
	if req.kind == kindDatalog {
		_, _, _, err := f.datalogSteps(ctx, req)
		return err
	}
	under(ctx, spanStoreRead, func() {
		switch req.kind {
		case kindEntity:
			f.sharded.Entity(req.entity)
		case kindTriples:
			f.sharded.Triples(req.entity, req.attr)
		case kindQuery:
			f.sharded.LookupN(req.pattern, req.limit)
		}
	})
	return nil
}

// servingProbes replays this round's share of sizes.probeOps requests of the
// workload's order against three layers in turn: the whole server over a
// loopback connection, its Handler() without a socket, and the read on the
// Querier without a handler. Per request,
//
//	transport = rtt − handler     (net/http server + client + loopback)
//	wrap      = handler − read    (middleware, routing, cache, JSON encoding)
//
// which holds for a mix of cheap and dear requests too, where the difference
// of two medians would compare one request with another. The probes run on
// as many goroutines as the closed loop has connections, each with its own
// requests, and all of them are in the same phase at the same time: every
// layer is timed with as many requests in flight as the closed loop keeps.
// (One at a time leaves a core idle, this box parks it, and waking it for the
// handler's goroutine costs more than a cached request does.) The spans of
// one goroutine are the children of its probe span, in request order within
// each phase, which is how servingLayers pairs them.
func (r *run) servingProbes(round int) bool {
	fx, tr := r.fx, r.tr
	h := fx.srv.Handler()
	n, stride := r.sizes.probeOps/rounds, len(fx.traffic.seq)/r.sizes.probeOps
	var phases [2]sync.WaitGroup
	for i := range phases {
		phases[i].Add(connections)
	}
	next := func(phase int) {
		phases[phase].Done()
		phases[phase].Wait()
	}
	res, err := runConns(fx.addr, func(conn int, c *conn, res *loopResult) {
		ctx, probe := obs.StartSpan(tr.ctx, spanProbe)
		defer probe.End()
		var reqs []*request
		for i := round*n + conn; i < (round+1)*n; i += connections {
			reqs = append(reqs, &fx.traffic.pool[fx.traffic.seq[i*stride]])
		}
		// A failed phase skips the later ones but still meets the other
		// goroutines at every barrier.
		var err error
		for _, req := range reqs {
			start := time.Now()
			under(ctx, spanRTT, func() { err = c.do(req) })
			if err != nil {
				break
			}
			res.lat.add(time.Since(start))
		}
		next(0)
		w := &nullWriter{h: http.Header{}}
		for _, req := range reqs {
			if err != nil {
				break
			}
			hr := req.httpRequest()
			clear(w.h)
			w.n = 0
			under(ctx, spanHandler, func() { h.ServeHTTP(w, hr) })
			if w.n != req.wantLen {
				err = fmt.Errorf("handler probe %s: %d bytes, reference is %d", req.target, w.n, req.wantLen)
			}
		}
		next(1)
		for _, req := range reqs {
			if err != nil {
				break
			}
			err = fx.storeRead(ctx, req)
		}
		if err != nil {
			res.fail(err)
		}
	})
	return r.window(res, err)
}

// datalogProbes runs every instantiated query alone, through the engine's
// three steps and once more with two executor workers, which needs the
// second core free; once in each of the first sizes.probeReps rounds.
func (r *run) datalogProbes(round int) bool {
	if round >= r.sizes.probeReps {
		return true
	}
	fx := r.fx
	var perRow, rows []float64
	for i := range fx.dlPool {
		req := &fx.dlPool[i]
		ctx, probe := obs.StartSpan(r.tr.ctx, spanDLProbe)
		q, plan, res, err := fx.datalogSteps(ctx, req)
		if err == nil {
			var par *datalog.Result
			under(ctx, spanDLExecPar, func() {
				par, err = datalog.RunPlan(context.Background(), fx.sharded, q, plan, datalog.Options{Parallelism: 2})
			})
			if err == nil && par.Total != res.Total {
				err = fmt.Errorf("datalog %s: total %d with 2 workers, %d with 1", req.query, par.Total, res.Total)
			}
		}
		probe.End()
		r.op(err)
		if err != nil {
			return false
		}
		perRow = append(perRow, float64(res.Probes)/float64(max(res.Total, 1)))
		rows = append(rows, float64(res.Total))
	}
	// Exact per seed, so every pass sets the same numbers.
	r.set("datalog.probes_per_row", mean(perRow))
	r.set("datalog.rows", mean(rows))
	return true
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// servingLayers does the layer arithmetic of the serving journey, request
// by request, and reports the median of each slice in microseconds.
func (r *run) servingLayers(s *spanSet) error {
	probes := s.byName[spanProbe]
	if len(probes) == 0 {
		return fmt.Errorf("trace has no %q span", spanProbe)
	}
	var rtt, handler, read, transport, wrap []float64
	for _, p := range probes {
		us := map[string][]float64{}
		for _, c := range s.children[p.ID] {
			us[c.Name] = append(us[c.Name], float64(c.DurationNS)/1e3)
		}
		n := len(us[spanRTT])
		// A request's read is one store call or a datalog query's three steps.
		reads := make([]float64, n)
		for _, name := range []string{spanStoreRead, spanDLParse, spanDLPlan, spanDLExec} {
			if len(us[name]) == 0 {
				continue
			}
			if len(us[name]) != n {
				return fmt.Errorf("probe %d has %d %q spans for %d requests", p.ID, len(us[name]), name, n)
			}
			for k, v := range us[name] {
				reads[k] += v
			}
		}
		if len(us[spanHandler]) != n {
			return fmt.Errorf("probe %d has %d handler spans for %d requests", p.ID, len(us[spanHandler]), n)
		}
		for k := 0; k < n; k++ {
			t, h, rd := us[spanRTT][k], us[spanHandler][k], reads[k]
			rtt, handler, read = append(rtt, t), append(handler, h), append(read, rd)
			transport, wrap = append(transport, t-h), append(wrap, h-rd)
		}
	}
	r.set("client.rtt_us", median(rtt))
	r.set("serve.handler_us", median(handler))
	r.set("serve.transport_us", median(transport))
	r.set("store.read_us", median(read))
	r.set("serve.wrap_us", median(wrap))

	var err error
	med := func(span string) float64 {
		v, e := s.medianOf(span, 1e3)
		if err == nil {
			err = e
		}
		return v
	}
	r.set("datalog.parse_us", med(spanDLParse))
	r.set("datalog.plan_us", med(spanDLPlan))
	r.set("datalog.exec_us", med(spanDLExec))
	// Two workers against one over the queries that ran alone.
	var serial, par float64
	for _, p := range s.byName[spanDLProbe] {
		for _, c := range s.children[p.ID] {
			switch c.Name {
			case spanDLExec:
				serial += float64(c.DurationNS)
			case spanDLExecPar:
				par += float64(c.DurationNS)
			}
		}
	}
	r.set("datalog.par2_ratio", ratio(par, serial))
	return err
}
