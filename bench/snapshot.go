package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"akb/internal/obs"
	"akb/internal/serve"
	"akb/internal/store"
)

// Span names of the snapshot journey.
const (
	spanSnapEncode   = "snap/encode"
	spanSnapWrite    = "snap/write"
	spanSnapRead     = "snap/read"
	spanSnapVerify   = "snap/verify"
	spanSnapLoad     = "snap/load"
	spanFirstRequest = "snap/first_request"
)

// coldStart is snapshot file → first answered query, as `akb serve
// -snapshot` does it: open the file, build a server on it, answer one
// /v1/entity request through Handler().
func coldStart(path string, first *request) (store.Querier, *httptest.ResponseRecorder, error) {
	q, _, err := store.OpenSnapshotFile(path, 0)
	if err != nil {
		return nil, nil, err
	}
	rec := httptest.NewRecorder()
	serve.New(q, obs.NewRegistry(), serve.DefaultConfig()).Handler().ServeHTTP(rec, first.httpRequest())
	return q, rec, nil
}

// checkAnswer compares a recorded answer with the request's reference.
func checkAnswer(rec *httptest.ResponseRecorder, req *request) error {
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK || len(body) != req.wantLen || bodySum(body) != req.wantSum {
		return fmt.Errorf("%s %s: status %d, %d bytes, differs from the reference (200, %d bytes)",
			req.method, req.target, rec.Code, len(body), req.wantLen)
	}
	return nil
}

// snapshotRound is one round's share of the snapshot journey: it alternates
// the write side and the read side of the v3 codec on the fixture's KB for
// the round's budget, at least once — WriteBinarySnapshotFile (encode +
// sha256 + fsync + rename), then a cold start from the file just written.
// Outside the timed calls it checks that the first answer is the reference
// answer and, once a round, that the file verifies and that
// decode(encode(x)) gives back x.
func (r *run) snapshotRound() bool {
	fx := r.fx
	path := filepath.Join(fx.dir, "journey.akb")
	first := &fx.coldReq
	deadline := time.Now().Add(r.share(snapshotShare) / rounds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		start := time.Now()
		err := fx.sharded.WriteBinarySnapshotFile(path)
		r.write = append(r.write, millis(time.Since(start)))
		if err != nil {
			r.op(err)
			return false
		}

		start = time.Now()
		q, rec, err := coldStart(path, first)
		r.cold = append(r.cold, millis(time.Since(start)))
		if err == nil {
			err = checkAnswer(rec, first)
		}
		if err == nil && i == 0 {
			_, err = store.VerifySnapshotFile(path)
		}
		if err == nil && i == 0 {
			if sh, ok := q.(*store.Sharded); !ok || !reflect.DeepEqual(sh.Facts(), fx.facts) {
				err = fmt.Errorf("snapshot: decoded facts differ from the encoded ones")
			}
		}
		r.op(err)
		if err != nil {
			return false
		}
	}
	if r.tr != nil {
		if err := r.snapshotProbes(path, first); err != nil {
			r.op(err)
			return false
		}
	}
	return true
}

func (r *run) snapshotFinish() {
	r.samples["snapshot"] = len(r.write)
	if r.tr == nil {
		r.set("snapshot_write_ms", slices.Min(r.write))
		r.set("cold_start_ms", slices.Min(r.cold))
		r.set("snapshot_bytes_per_fact", float64(r.fx.snapSize)/float64(len(r.fx.facts)))
	}
}

// snapshotProbes takes one pass through the journey's layers, one span
// each: encode into nothing and write to disk (their difference is the file
// system's share: write, fsync, rename), then read, verify, load from
// memory, and a server's first answer.
func (r *run) snapshotProbes(path string, first *request) error {
	fx, tr := r.fx, r.tr
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	tr.span(spanSnapEncode, func() { keep(fx.sharded.WriteBinarySnapshot(io.Discard)) })
	tr.span(spanSnapWrite, func() { keep(fx.sharded.WriteBinarySnapshotFile(path)) })
	var data []byte
	tr.span(spanSnapRead, func() {
		var e error
		data, e = os.ReadFile(path)
		keep(e)
	})
	tr.span(spanSnapVerify, func() {
		_, e := store.VerifySnapshotFile(path)
		keep(e)
	})
	var sh *store.Sharded
	tr.span(spanSnapLoad, func() {
		var e error
		sh, e = store.ReadBinarySnapshot(bytes.NewReader(data))
		keep(e)
	})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	tr.span(spanFirstRequest, func() {
		serve.New(sh, obs.NewRegistry(), serve.DefaultConfig()).Handler().ServeHTTP(rec, first.httpRequest())
	})
	return checkAnswer(rec, first)
}

func (r *run) snapshotLayers(s *spanSet) error {
	for name, span := range map[string]string{
		"store.snap_encode_ms":   spanSnapEncode,
		"store.snap_read_ms":     spanSnapRead,
		"store.snap_verify_ms":   spanSnapVerify,
		"store.snap_load_ms":     spanSnapLoad,
		"serve.first_request_ms": spanFirstRequest,
	} {
		v, err := s.fastestOf(span, 1e6)
		if err != nil {
			return err
		}
		r.set(name, v)
	}
	write, err := s.fastestOf(spanSnapWrite, 1e6)
	if err != nil {
		return err
	}
	r.set("store.snap_fsync_ms", write-r.metrics["store.snap_encode_ms"])
	return nil
}
