package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"akb/internal/obs"
)

// TestMetricsContentNegotiation is the format matrix for /metrics: JSON
// stays the default (akb report compatibility), the Prometheus text
// exposition is opt-in via ?format=prom or a scraper-style Accept
// header, and the explicit parameter beats the header.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	// Drive one query so route metrics exist before scraping.
	get(t, ts.URL+"/v1/query?class=Film")

	cases := []struct {
		name     string
		path     string
		accept   string
		wantProm bool
	}{
		{"default is JSON", "/metrics", "", false},
		{"browser accept is JSON", "/metrics", "*/*", false},
		{"explicit JSON accept", "/metrics", "application/json", false},
		{"format=prom", "/metrics?format=prom", "", true},
		{"format=prometheus", "/metrics?format=prometheus", "", true},
		{"openmetrics accept", "/metrics", "application/openmetrics-text;version=1.0.0", true},
		{"prometheus scraper accept", "/metrics",
			"application/openmetrics-text;version=1.0.0;q=0.5,text/plain;version=0.0.4;q=0.3,*/*;q=0.1", true},
		{"text/plain accept", "/metrics", "text/plain", true},
		{"format=json beats accept", "/metrics?format=json", "text/plain", false},
		{"format=prom beats accept", "/metrics?format=prom", "application/json", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("GET", ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			ct := resp.Header.Get("Content-Type")
			if tc.wantProm {
				if ct != obs.PromContentType {
					t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
				}
				if !strings.Contains(string(raw), "# TYPE ") || !strings.HasSuffix(string(raw), "# EOF\n") {
					t.Errorf("not a text exposition:\n%.400s", raw)
				}
			} else {
				if !strings.HasPrefix(ct, "application/json") {
					t.Errorf("Content-Type = %q, want JSON", ct)
				}
				var body struct {
					Metrics []obs.Metric `json:"metrics"`
				}
				if err := json.Unmarshal(raw, &body); err != nil || len(body.Metrics) == 0 {
					t.Errorf("bad JSON metrics body: %v %.200s", err, raw)
				}
			}
		})
	}
}

// TestPromExpositionContent pins what a scrape must contain: the
// build-info gauge with its labels, the request counter, the uptime
// gauge, and the latency histogram over the sub-millisecond serve
// bounds with cumulative buckets and +Inf.
func TestPromExpositionContent(t *testing.T) {
	_, ts := testServer(t, DefaultConfig())
	get(t, ts.URL+"/v1/query?class=Film")

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	for _, want := range []string{
		"# TYPE akb_build_info gauge",
		`akb_build_info{commit="`,
		`goversion="go`,
		"# TYPE akb_serve_requests_total counter",
		"# TYPE akb_serve_uptime_seconds gauge",
		"# TYPE akb_serve_latency_seconds histogram",
		`akb_serve_latency_seconds_bucket{le="1e-05"} `, // the tuned first bound, not the 0.0001 default
		`akb_serve_latency_seconds_bucket{le="+Inf"} `,
		"akb_serve_latency_seconds_sum ",
		"akb_serve_latency_seconds_count ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// getWithID sends a GET carrying a client request ID and drains the body.
func getWithID(t *testing.T, url, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// logKeys returns a JSON object's top-level keys in the order written.
func logKeys(t *testing.T, line string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %q", line)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	return keys
}

// TestAccessLog asserts the access log's record for a success and an
// error, correlated with the response header: slog's JSON header, then the
// request's fields in a fixed order.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.AccessLog = slog.New(slog.NewJSONHandler(&buf, nil))
	s := New(testStore(), obs.NewRegistry(), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	okID := getWithID(t, ts.URL+"/v1/entity/Casablanca", "req-0001").Header.Get(RequestIDHeader)
	getWithID(t, ts.URL+"/v1/entity/Nobody", "req-0002")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first, second map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %q", lines[0])
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %q", lines[1])
	}
	want := []string{"time", "level", "msg", "id", "method", "path", "status", "bytes", "dur_us", "gen"}
	for _, line := range lines {
		if got := logKeys(t, line); !reflect.DeepEqual(got, want) {
			t.Errorf("access-log keys %v, want %v", got, want)
		}
	}
	if first["id"] != okID {
		t.Errorf("log id %v != header id %q", first["id"], okID)
	}
	if first["msg"] != "request" || first["level"] != "INFO" || first["method"] != "GET" ||
		first["path"] != "/v1/entity/Casablanca" || first["status"] != float64(200) ||
		first["gen"] != float64(1) {
		t.Errorf("unexpected access-log fields: %v", first)
	}
	if stamp, _ := first["time"].(string); stamp == "" {
		t.Errorf("access-log time %v is not a string", first["time"])
	} else if _, err := time.Parse(time.RFC3339, stamp); err != nil {
		t.Errorf("access-log time %q is not RFC 3339: %v", stamp, err)
	}
	if first["bytes"] == float64(0) || first["dur_us"] == nil {
		t.Errorf("missing size/duration fields: %v", first)
	}
	if second["status"] != float64(404) || second["level"] != "INFO" || second["id"] != "req-0002" {
		t.Errorf("error line fields: %v", second)
	}
}

// TestAccessLogLevels: a 5xx — here a recovered panic in the store read —
// is logged at ERROR and anything else at INFO, so a logger at ERROR keeps
// the 500 and nothing else.
func TestAccessLogLevels(t *testing.T) {
	for _, min := range []slog.Level{slog.LevelInfo, slog.LevelError} {
		var buf bytes.Buffer
		cfg := stallEntity(DefaultConfig(), func() { panic("injected store fault") })
		cfg.AccessLog = slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: min}))
		s := New(testStore(), obs.NewRegistry(), cfg)
		ts := httptest.NewServer(s.Handler())
		for _, path := range []string{"/healthz", "/v1/entity/Casablanca", "/no/such/route"} {
			getWithID(t, ts.URL+path, path)
		}
		ts.Close()

		var got []string
		for dec := json.NewDecoder(&buf); dec.More(); {
			var rec struct {
				Level  string
				Status int
			}
			if err := dec.Decode(&rec); err != nil {
				t.Fatalf("logger at %v: access log: %v", min, err)
			}
			got = append(got, fmt.Sprintf("%s %d", rec.Level, rec.Status))
		}
		want := []string{"INFO 200", "ERROR 500", "INFO 404"}
		if min == slog.LevelError {
			want = []string{"ERROR 500"}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("logger at %v wrote %q, want %q", min, got, want)
		}
	}
}

// TestRequestSpans gives the server a telemetry run and asserts each
// request opens one span annotated with its ID and final status, capped
// by the trace limit.
func TestRequestSpans(t *testing.T) {
	run := obs.NewRun()
	run.Trace().SetLimit(3)
	cfg := DefaultConfig()
	cfg.Obs = run
	s := New(testStore(), run.Registry(), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 1; i <= 5; i++ {
		getWithID(t, ts.URL+"/healthz", fmt.Sprintf("req-%04d", i))
	}
	spans := run.Trace().Snapshot()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3 (cap)", len(spans))
	}
	if run.Trace().Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", run.Trace().Dropped())
	}
	sp := spans[0]
	if sp.Name != "http GET /healthz" {
		t.Errorf("span name = %q", sp.Name)
	}
	if sp.Attr("request_id") != "req-0001" || sp.Attr("status") != "200" {
		t.Errorf("span attrs = %v", sp.Attrs)
	}
	// The serve counters land in the registry the server was given.
	if n := run.Registry().Counter("akb_serve_requests_total").Value(); n != 5 {
		t.Errorf("requests_total on the run registry = %d, want 5", n)
	}
}

// TestAdminHandlerServesPprof drives the opt-in admin mux: the pprof
// index and a short profile must answer on it, and the query API's
// public mux must NOT expose /debug/pprof.
func TestAdminHandlerServesPprof(t *testing.T) {
	admin := httptest.NewServer(AdminHandler())
	defer admin.Close()

	resp, err := http.Get(admin.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "goroutine") {
		t.Errorf("pprof index: %d %.120s", resp.StatusCode, raw)
	}
	resp, err = http.Get(admin.URL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("heap profile status = %d", resp.StatusCode)
	}

	// The public API must not serve profiling endpoints.
	_, ts := testServer(t, DefaultConfig())
	status, _ := get(t, ts.URL+"/debug/pprof/")
	if status != http.StatusNotFound {
		t.Errorf("public mux serves pprof: %d", status)
	}
}
