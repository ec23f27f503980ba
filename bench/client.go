package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven by one goroutine:
// write a pre-rendered request, read the whole response. It stands in for
// a client process at the far end of a socket, so it does as little work as
// a correct client can — the benchmark shares two cores with the server.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
	n   int // requests sent, for the 1-in-checkEvery full check
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// checkEvery is the sampling stride of the full-body comparison; status
// and body length are checked on every response.
const checkEvery = 64

func bodySum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// do sends req and checks the answer against its reference: status 200 and
// the reference length always, the reference bytes (by hash) on every
// checkEvery-th request of the connection.
func (c *conn) do(req *request) error {
	if _, err := c.c.Write(req.wire); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return fmt.Errorf("read response: %w", err)
	}
	c.buf = c.buf[:0]
	for {
		if len(c.buf) == cap(c.buf) {
			c.buf = append(c.buf, 0)[:len(c.buf)]
		}
		n, err := resp.Body.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			return fmt.Errorf("read body: %w", err)
		}
	}
	resp.Body.Close()
	c.n++
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.method, req.target, resp.StatusCode)
	}
	if len(c.buf) != req.wantLen {
		return fmt.Errorf("%s %s: body is %d bytes, reference is %d", req.method, req.target, len(c.buf), req.wantLen)
	}
	if c.n%checkEvery == 0 && bodySum(c.buf) != req.wantSum {
		return fmt.Errorf("%s %s: body differs from the reference", req.method, req.target)
	}
	return nil
}

// connections is how many client connections every serving window uses:
// one per core of the 2-core box the benchmark is sized for.
const connections = 2

// loopResult is what one serving window observed.
type loopResult struct {
	lat      latencies
	bytes    int64 // body bytes of the answered requests
	failed   int
	firstErr error
	elapsed  time.Duration

	// Open loop only: how late sends left that were not waiting for the
	// previous response on their connection.
	sends   int
	lateGen latencies // lateness of generator-late sends
}

func (r *loopResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *loopResult) merge(o *loopResult) {
	r.lat.merge(&o.lat)
	r.bytes += o.bytes
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.sends += o.sends
	r.lateGen.merge(&o.lateGen)
}

// runConns runs body once per connection, each on its own goroutine with
// its own connection and result, and merges the results.
func runConns(addr string, body func(i int, c *conn, res *loopResult)) (*loopResult, error) {
	conns := make([]*conn, connections)
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		conns[i] = c
	}
	parts := make([]loopResult, connections)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(i, conns[i], &parts[i])
		}(i)
	}
	wg.Wait()
	total := &loopResult{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total, nil
}

// closedLoop sends t's requests back to back on every connection for d: a
// connection's next request leaves when its previous answer has arrived.
// around, when not nil, wraps every request (the traced run's span).
func closedLoop(addr string, t *traffic, d time.Duration, around func(do func())) (*loopResult, error) {
	return runConns(addr, func(i int, c *conn, res *loopResult) {
		res.lat.d = make([]time.Duration, 0, 1<<16)
		deadline := time.Now().Add(d)
		for {
			start := time.Now()
			if !start.Before(deadline) {
				return
			}
			req := t.next(i)
			var err error
			if around != nil {
				around(func() { err = c.do(req) })
			} else {
				err = c.do(req)
			}
			if err != nil {
				res.fail(err)
				return // the connection's framing is unknown after an error
			}
			res.lat.add(time.Since(start))
			res.bytes += int64(len(c.buf))
		}
	})
}

// waitUntil returns at due, and whether there was any waiting to do. A
// sleeping goroutine wakes when the kernel's timer says so — half a
// millisecond late on the virtual machines this runs on, longer than a whole
// request — so the last stretch is a busy loop. (A loop that yields instead
// keeps every core's scheduler handing the waiters back and forth and the
// network unpolled: medians rose tenfold.)
func waitUntil(due time.Time) bool {
	const spin = 2 * time.Millisecond
	wait := time.Until(due)
	if wait <= 0 {
		return false
	}
	if wait > spin {
		time.Sleep(wait - spin)
	}
	for time.Now().Before(due) {
	}
	return true
}

// lateAfter is how long after its due time a send may leave before it
// counts as late.
const lateAfter = 100 * time.Microsecond

// openLoop sends at a fixed rate for d whatever the server does: request k
// is due at start + k/rate and goes to connection k mod connections. Every
// latency runs from the due time, so when an answer stalls, the requests
// due behind it on that connection are charged the wait (no coordinated
// omission). A send that leaves more than lateAfter past due although its
// connection was idle is the generator's own lateness, reported apart.
func openLoop(addr string, t *traffic, rate int, d time.Duration) (*loopResult, error) {
	interval := time.Duration(float64(time.Second) / float64(rate))
	total := int(d / interval)
	begin := time.Now().Add(5 * time.Millisecond)
	return runConns(addr, func(i int, c *conn, res *loopResult) {
		res.lat.d = make([]time.Duration, 0, total/connections+1)
		for k := i; k < total; k += connections {
			due := begin.Add(time.Duration(k) * interval)
			idle := waitUntil(due)
			req := t.next(i)
			if late := time.Since(due); idle && late > lateAfter {
				res.lateGen.add(late)
			}
			res.sends++
			if err := c.do(req); err != nil {
				res.fail(err)
				res.failed += (total - k - 1) / connections // the rest of this connection's schedule is lost
				return
			}
			res.lat.add(time.Since(due))
		}
	})
}
