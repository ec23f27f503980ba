package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"akb/internal/core"
	"akb/internal/datalog"
	"akb/internal/obs"
	"akb/internal/serve"
	"akb/internal/store"
)

// fixture is everything a run's journeys work on, built from the seed the
// way a deployment builds it: the pipeline fuses a KB, the KB is sharded
// and written as a snapshot, a server opens that snapshot and listens on
// loopback. Building it is the benchmark's set-up, timed as setup_s.
type fixture struct {
	dir      string
	snapPath string
	snapSize int64

	// The KB as opened from the snapshot file: what the server serves and
	// what the snapshot journey writes again. The store the pipeline's facts
	// were first indexed into is dropped once the file is written, so the
	// heap holds one copy of the KB, as a serving process does.
	sharded *store.Sharded
	facts   []store.Fact // canonical order
	reg     *obs.Registry
	srv     *serve.Server
	addr    string
	stop    func() error

	traffic *traffic
	dlPool  []request // the datalog queries as requests: the datalog mix sends them, every workload's layer probe runs them
	coldReq request   // the first request of every cold start
}

const fixtureShards = 8

// buildFixture runs the whole set-up once.
func buildFixture(w *workload, seed int64, dir string) (*fixture, error) {
	ctx := context.Background()
	res, err := core.New(core.WithSeed(seed), core.WithScale(w.kbScale), core.WithParallelism(2)).Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("fixture pipeline: %w", err)
	}
	if h := res.Health(); !h.Healthy() {
		return nil, fmt.Errorf("fixture pipeline degraded: %s", h)
	}
	f := &fixture{dir: dir, snapPath: filepath.Join(dir, "kb.akb")}
	if err := store.NewSharded(store.ResultFacts(res), fixtureShards).WriteBinarySnapshotFile(f.snapPath); err != nil {
		return nil, err
	}
	st, err := os.Stat(f.snapPath)
	if err != nil {
		return nil, err
	}
	f.snapSize = st.Size()
	q, _, err := store.OpenSnapshotFile(f.snapPath, 0)
	if err != nil {
		return nil, err
	}
	var ok bool
	if f.sharded, ok = q.(*store.Sharded); !ok {
		return nil, fmt.Errorf("%s opened as %T, want *store.Sharded", f.snapPath, q)
	}
	f.facts = f.sharded.Facts()

	f.reg = obs.NewRegistry()
	f.srv = serve.New(f.sharded, f.reg, serve.DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.addr = ln.Addr().String()
	sctx, cancel := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- f.srv.Serve(sctx, ln) }()
	f.stop = func() error {
		cancel()
		return <-served
	}

	shape := shapeOf(f.facts)
	dl := datalogTraffic(datalogQueries(shape, seed), seed)
	f.dlPool = dl.pool
	switch w.mix {
	case mixHot:
		f.traffic = hotTraffic(shape, seed)
	case mixWide:
		f.traffic = wideTraffic(shape, seed)
	case mixDatalog:
		f.traffic = dl
	}
	f.coldReq = entityRequest(shape.entities[rng(seed, "cold").Intn(len(shape.entities))])
	if err := f.reference(); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// reference answers every generated request through the Handler() of a
// second server over the same store — so the server under test starts with
// an empty cache — and records each answer's length and hash. For datalog
// it also checks the answer's total against the naive plan's.
func (f *fixture) reference() error {
	ref := serve.New(f.sharded, nil, serve.DefaultConfig()).Handler()
	answer := func(r *request) error {
		rec := httptest.NewRecorder()
		ref.ServeHTTP(rec, r.httpRequest())
		if rec.Code != http.StatusOK {
			return fmt.Errorf("reference %s %s: status %d: %s", r.method, r.target, rec.Code, rec.Body.Bytes())
		}
		body := rec.Body.Bytes()
		r.wantLen, r.wantSum = len(body), bodySum(body)
		if r.kind != kindDatalog {
			return nil
		}
		var got struct{ Total int }
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("reference %s: %w", r.query, err)
		}
		q, err := datalog.Parse(r.query)
		if err != nil {
			return fmt.Errorf("reference %s: %w", r.query, err)
		}
		q.Limit = r.limit
		naive, err := datalog.Run(context.Background(), f.sharded, q, datalog.Options{Naive: true})
		if err != nil {
			return fmt.Errorf("reference %s: %w", r.query, err)
		}
		if got.Total != naive.Total || got.Total == 0 {
			return fmt.Errorf("datalog %s: served total %d, naive plan %d (want equal and above 0)", r.query, got.Total, naive.Total)
		}
		return nil
	}
	// The wide mix has some 59k requests to answer: one half per core.
	half := len(f.traffic.pool) / 2
	all := [][]request{f.traffic.pool[:half], f.traffic.pool[half:], f.dlPool}
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, pool := range all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range pool {
				if errs[i] = answer(&pool[j]); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(append(errs, answer(&f.coldReq))...)
}

// httpRequest builds the request as net/http would hand it to the handler.
func (r *request) httpRequest() *http.Request {
	if r.body == nil {
		return httptest.NewRequest(r.method, r.target, nil)
	}
	req := httptest.NewRequest(r.method, r.target, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

func (f *fixture) close() error {
	err := f.stop()
	os.RemoveAll(f.dir)
	return err
}

// setUp builds the run's fixture and reports the median time of doing so.
// It repeats the build until setupReps are done or setupBudget is used, so
// the small fixture reports a median of five and the scale-16 one, whose
// single build is already seconds long, is built once. The box's speed is
// sampled before and after every build.
const (
	setupReps   = 5
	setupBudget = 4 * time.Second
)

func (r *run) setUp(outDir string) (*fixture, float64, int, error) {
	var times []float64
	var f *fixture
	begin := time.Now()
	r.calibrate()
	for rep := 0; rep < setupReps && (rep == 0 || time.Since(begin) < setupBudget); rep++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, 0, 0, err
			}
		}
		dir, err := os.MkdirTemp(outDir, "run-")
		if err != nil {
			return nil, 0, 0, err
		}
		start := time.Now()
		if f, err = buildFixture(r.w, r.seed, dir); err != nil {
			os.RemoveAll(dir)
			return nil, 0, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		r.calibrate()
	}
	return f, median(times), len(times), nil
}
