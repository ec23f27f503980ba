package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"akb/internal/obs"
)

// RequestIDHeader is the header a request's identity travels in. An
// incoming value (a gateway's or client's ID) is adopted; otherwise the
// server generates one. Every response — 2xx, the 4xx/5xx envelopes,
// shed 429s, timeouts and recovered panics — echoes it, so one ID
// follows a request through access logs, traces and the client's own
// records.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds adopted inbound IDs; anything longer (or empty)
// is replaced with a generated one, so a hostile client cannot stuff
// megabytes into every log line.
const maxRequestIDLen = 128

// newRequestID generates a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// counter so requests still get distinct IDs.
		return "fallback-" + time.Now().Format("150405.000000000")
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the status code and body bytes a handler
// writes, for the access log and the request span. The first
// WriteHeader wins, mirroring net/http semantics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

// Unwrap hands http.ResponseController the connection's own writer, so the
// layers behind observe can flush.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += n
	return n, err
}

// observe is the outermost middleware: request identity, tracing and the
// access log. It runs outside panic recovery, so even a recovered panic's
// 500 carries the request ID (the header is set before anything below
// can write) and is traced and logged under it, and it sees the final
// status of every outcome — shed 429s, timeout 503s, envelope errors,
// panics.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" || len(id) > maxRequestIDLen {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)

		// One span per request when the server carries a telemetry run, so
		// slow requests line up against reload/chaos events in the same
		// trace. The run's span cap (set by the caller) bounds retention.
		var span *obs.Span
		if s.cfg.Obs != nil {
			var ctx context.Context
			ctx, span = obs.StartSpan(obs.Into(r.Context(), s.cfg.Obs), "http "+r.Method+" "+r.URL.Path)
			span.Annotate("request_id", id)
			r = r.WithContext(ctx)
		}

		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		dur := time.Since(start)

		status := rec.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http defaults the status
		}
		if span != nil {
			span.AnnotateInt("status", int64(status))
			span.AnnotateInt("bytes", int64(rec.bytes))
			span.End()
		}
		log := s.cfg.AccessLog
		if log == nil {
			return // no line, and no arguments built for one
		}
		level := slog.LevelInfo
		if status >= http.StatusInternalServerError {
			level = slog.LevelError
		}
		log.LogAttrs(r.Context(), level, "request",
			slog.String("id", id), slog.String("method", r.Method), slog.String("path", r.URL.RequestURI()),
			slog.Int("status", status), slog.Int("bytes", rec.bytes), slog.Int64("dur_us", dur.Microseconds()),
			slog.Uint64("gen", s.Generation()))
	})
}

// timeoutBody is the envelope a request gets when its deadline passes
// before its handler has answered.
const timeoutBody = `{"error":"request timed out","status":503}`

// errTimedOut is the cause deadline cancels a request's context with.
var errTimedOut = errors.New("request timed out")

// deadline bounds one request's handling time without leaving the
// connection's goroutine: the handler runs where net/http called it, under
// a context that a timer cancels at Config.RequestTimeout. At the deadline
// the timer also answers for a handler that has not started its response —
// 503 and the timeout envelope, flushed — and from then on drops whatever
// the handler writes; a response the handler has already started is left
// to it. The client-visible contract is a 503 at the deadline, not a hang;
// the handler itself returns when it notices the cancelled context, and
// until it does the connection (and the in-flight slot) stay occupied.
func (s *Server) deadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancelCause(r.Context())
		dw := &deadlineWriter{w: w}
		dw.expiring.Add(1)
		timer := time.AfterFunc(s.cfg.RequestTimeout, func() {
			defer dw.expiring.Done()
			cancel(errTimedOut)
			dw.expire()
		})
		defer func() {
			// A timer that can no longer be stopped is running expire right
			// now: wait it out, so nothing writes to w after this returns
			// and observe reads a settled status.
			if !timer.Stop() {
				dw.expiring.Wait()
			}
			cancel(nil)
		}()
		next.ServeHTTP(dw, r.WithContext(ctx))
	})
}

// deadlineWriter is the ResponseWriter a handler behind deadline sees. The
// mutex orders the handler's writes against the timer's: whichever starts
// the response first owns it. Headers the handler sets collect in a map of
// its own and reach the connection's header only with its WriteHeader, under
// the mutex — the timer writes its envelope into the connection's header
// while the handler may be setting headers, and two writers on one map are a
// crash, not a garbled response.
type deadlineWriter struct {
	w        http.ResponseWriter
	h        http.Header    // the handler's headers; nil until it asks
	expiring sync.WaitGroup // held by the timer's function until it returns

	mu       sync.Mutex
	started  bool // the handler wrote its header: the response is its own
	timedOut bool // the timer answered: the handler's writes are dropped
}

func (d *deadlineWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header, 4)
	}
	return d.h
}

func (d *deadlineWriter) WriteHeader(code int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeHeader(code)
}

func (d *deadlineWriter) writeHeader(code int) {
	if d.timedOut || d.started {
		return
	}
	d.started = true
	dst := d.w.Header()
	for k, v := range d.h {
		dst[k] = v
	}
	d.w.WriteHeader(code)
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timedOut {
		return 0, http.ErrHandlerTimeout
	}
	d.writeHeader(http.StatusOK)
	return d.w.Write(p)
}

// FlushError lets a streaming handler flush through http.ResponseController
// without reaching past the mutex.
func (d *deadlineWriter) FlushError() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timedOut {
		return http.ErrHandlerTimeout
	}
	return http.NewResponseController(d.w).Flush()
}

// expire is the timer's side: answer 503 unless the handler already has.
func (d *deadlineWriter) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return
	}
	d.timedOut = true
	h := d.w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(timeoutBody)))
	d.w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(d.w, timeoutBody)
	// The handler may hold the connection for a long time yet; the answer
	// must not wait in net/http's buffer for it.
	http.NewResponseController(d.w).Flush()
}
