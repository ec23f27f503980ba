package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"akb/internal/kb"
	"akb/internal/store"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 3, 1, 4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.1, 14}, {0.25, 20}, {0.5, 30}, {1, 50}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if quantile(nil, 0.1) != 0 {
		t.Error("quantile of no samples must be 0")
	}
}

// A box that ran 1.25 times slower measured durations 1.25 times too long
// and rates 1.25 times too low; everything else is reported as measured.
func TestAtReferenceSpeed(t *testing.T) {
	for _, c := range []struct {
		unit string
		want float64
	}{{"s", 80}, {"ms", 80}, {"us", 80}, {"1/s", 125}, {"MB", 100}, {"B", 100}, {"share", 100}, {"ratio", 100}, {"count", 100}, {"kB", 100}} {
		if got := atReferenceSpeed(100, c.unit, 1.25); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("100 %s at slowdown 1.25 = %v, want %v", c.unit, got, c.want)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		switch d.unit {
		case "s", "ms", "us", "1/s", "MB", "B", "kB", "share", "ratio", "count":
		default:
			t.Errorf("%s has unit %q, which atReferenceSpeed does not know to correct or to leave", d.name, d.unit)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- {
		l.add(time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := l.percentile(c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := l.shareAbove(90); got != 0.1 {
		t.Errorf("shareAbove(90) = %v, want 0.1", got)
	}
	var empty latencies
	if empty.percentile(99) != 0 {
		t.Error("percentile of no samples must be 0")
	}
}

// fixedTraffic is one request answered by body, sent over and over.
func fixedTraffic(body string) *traffic {
	req := getRequest(kindEntity, "/x")
	req.wantLen, req.wantSum = len(body), bodySum([]byte(body))
	return newTraffic([]request{req}, []int32{0})
}

// A server that stalls once for 50 ms makes the requests due behind the
// stalled one wait; an open loop must charge them that wait.
func TestOpenLoopCountsTheQueueBehindAStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1) == 160 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	const rate = 4000 // 2000/s on each connection: 100 requests fall due during the stall
	res, err := openLoop(srv.Listener.Addr().String(), fixedTraffic("ok"), rate, 300*time.Millisecond)
	if err != nil || res.failed != 0 {
		t.Fatalf("open loop: %v, %d failed (%v)", err, res.failed, res.firstErr)
	}
	if res.lat.len() != 1200 {
		t.Fatalf("sent %d requests, want 1200", res.lat.len())
	}
	if max := res.lat.percentile(100); max < stall {
		t.Errorf("slowest request took %v, want at least the %v stall", max, stall)
	}
	// Requests due 0, 0.5, 1 … ms into the stall wait 50, 49.5, 49 … ms:
	// about fifty of them more than half the stall. A loop that started its
	// clock at the send, not at the due time, would report one.
	queued := res.lat.shareAbove(stall/2) * float64(res.lat.len())
	if queued < 30 {
		t.Errorf("%v requests waited more than %v, want the stalled one and the queue behind it (about 50)", queued, stall/2)
	}
	// The connection was busy, not idle, while they waited: that is the
	// server's lateness, not the generator's, whose own (a descheduled
	// busy-wait) is a few milliseconds at worst.
	if late := res.lateGen.percentile(100); late > stall/2 {
		t.Errorf("a send counted as generator-late by %v: the stall was charged to the generator", late)
	}
}

func TestClosedLoopReportsWrongBytes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "no") }))
	defer srv.Close()
	res, err := closedLoop(srv.Listener.Addr().String(), fixedTraffic("ok!"), 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != connections || res.lat.len() != 0 {
		t.Errorf("%d failed, %d answered; want every connection to fail on its first wrong answer", res.failed, res.lat.len())
	}
}

func testShape(seed int64) *kbShape {
	cfg := kb.DefaultWorldConfig()
	cfg.Seed = seed
	return shapeOf(store.New(store.WorldFacts(kb.NewWorld(cfg))).Facts())
}

func TestGeneratorsDependOnTheSeedAlone(t *testing.T) {
	// The bytes of the first requests sent, and the whole order after them.
	wire := func(tr *traffic) []byte {
		var b bytes.Buffer
		for _, i := range tr.seq[:4096] {
			b.Write(tr.pool[i].wire)
		}
		for _, i := range tr.seq {
			b.WriteByte(byte(i))
			b.WriteByte(byte(i >> 8))
		}
		return b.Bytes()
	}
	shape := testShape(1)
	gens := map[string]func(seed int64) *traffic{
		"hot":     func(seed int64) *traffic { return hotTraffic(shape, seed) },
		"wide":    func(seed int64) *traffic { return wideTraffic(shape, seed) },
		"datalog": func(seed int64) *traffic { return datalogTraffic(datalogQueries(shape, seed), seed) },
	}
	for name, gen := range gens {
		a, again, other := wire(gen(7)), wire(gen(7)), wire(gen(8))
		if !bytes.Equal(a, again) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", name)
		}
	}
	if !reflect.DeepEqual(testShape(1), shape) {
		t.Error("shapeOf is not deterministic")
	}
}

func TestTrafficMixes(t *testing.T) {
	shape := testShape(3)
	hot := hotTraffic(shape, 3)
	if len(hot.pool) > 2*hotKeys {
		t.Errorf("hot pool has %d keys, want at most %d", len(hot.pool), 2*hotKeys)
	}
	for i, idx := range hot.seq[:1000] {
		if want := []reqKind{kindEntity, kindTriples}[i%2]; hot.pool[idx].kind != want {
			t.Fatalf("hot request %d is kind %d, want entity and triples alternating", i, hot.pool[idx].kind)
		}
	}
	wide := wideTraffic(shape, 3)
	var kinds [4]float64
	for _, idx := range wide.seq {
		kinds[wide.pool[idx].kind]++
	}
	for kind, want := range map[reqKind]float64{kindEntity: 0.2, kindTriples: 0.5, kindQuery: 0.3} {
		if got := kinds[kind] / float64(len(wide.seq)); math.Abs(got-want) > 0.01 {
			t.Errorf("wide mix: kind %d is %.3f of requests, want %.1f", kind, got, want)
		}
	}
	if got := len(datalogQueries(shape, 3)); got != 10*datalogRounds {
		t.Errorf("%d datalog queries, want %d", got, 10*datalogRounds)
	}
}

func side2(xs ...float64) side { return side{values: xs} }

func TestJudge(t *testing.T) {
	a := side2(100, 101, 102, 103, 104)
	for _, c := range []struct {
		name  string
		b     side
		lower bool
		want  string
	}{
		{"same", side2(100, 101, 102, 103, 104), true, verdictOK},
		{"within bound", side2(104, 105, 106, 107, 108), true, verdictOK},
		{"slower beyond bound", side2(120, 121, 122, 123, 124), true, verdictRegressed},
		{"faster", side2(80, 81, 82, 83, 84), true, verdictOK},
		{"higher is better and it fell", side2(80, 81, 82, 83, 84), false, verdictRegressed},
		{"noisy and overlapping", side2(60, 90, 110, 140, 180), true, verdictUnresolved},
		{"noisy but every run slower", side2(200, 260, 300, 340, 420), true, verdictRegressed},
		{"noisy but every run faster", side2(20, 30, 40, 50, 60), true, verdictOK},
	} {
		if got := judge(a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the program must name the same workloads and metrics,
// with the same units, inside the limits the benchmark contract sets.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, declared []specMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(defs))
		}
		for i, m := range declared {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: declared %s [%s], implemented %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if !nameRE.MatchString(m.Name) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: bad name or direction %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Error("setup_s [s, lower] must be declared")
	}
	for _, m := range spec.EndToEnd {
		if *m.Bound > *spec.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// The smoke run drives every journey and layer probe once at scale 1, on
// the workload that runs every pipeline stage, and must print every declared
// metric with its unit and fail nothing.
func TestQuickSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	records := filepath.Join(dir, "records.jsonl")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-quick", "-workload", "serve-wide", "-seed", "5", "-outdir", dir, "-out", records}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("result lacks %s [%s] (got %+v)", m.Name, m.Unit, got)
		}
		printed := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+-?[0-9.]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
		if !printed.MatchString(stdout.String()) {
			t.Errorf("%s is not printed by name with its unit", m.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		if res.Metrics[m.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s is %v, want above 0", m.Name, res.Metrics[m.Name].Value)
		}
	}
	if v := res.Metrics["fail_share"].Value; v != 0 {
		t.Errorf("fail_share = %v, want 0", v)
	}
	for _, name := range []string{"align.ms", "entitydisc.ms", "core.stage_sum_share", "serve.cache_hit_share", "datalog.exec_us"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on serve-wide, want above 0", name, res.Metrics[name].Value)
		}
	}

	// The records just written compare equal to themselves.
	stdout.Reset()
	if code := realMain([]string{"-benchmark", filepath.Join("..", "BENCHMARK.json"), "-compare", records, records}, &stdout, &stderr); code != 0 {
		t.Errorf("-compare of a file with itself: exit %d\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "serve-wide") || !strings.Contains(stdout.String(), "req_p95_us") {
		t.Errorf("-compare printed no serve-wide rows:\n%s", stdout.String())
	}
}

// A traced run whose open-loop generator ran late must not pass its
// open-loop numbers off as the server's: -compare marks their rows.
func TestCompareMarksALateGenerator(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	rec := func(late bool) *record {
		return &record{Workload: "serve-hot", Trace: 1, OpenUnresolved: late,
			Metrics: map[string]float64{"client.open_p50_us": 30, "client.rtt_us": 40}}
	}
	if err := appendRecord(a, rec(false)); err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(b, rec(true)); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := compareFiles(filepath.Join("..", "BENCHMARK.json"), a, b, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: per-layer rows carry no bound and must not fail the comparison\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		late := strings.Contains(line, "generator ran late")
		if want := strings.Contains(line, "client.open_p50_us"); late != want {
			t.Errorf("row marked late = %v, want %v: %s", late, want, line)
		}
	}
	if !strings.Contains(stdout.String(), "client.open_p50_us") || !strings.Contains(stdout.String(), "client.rtt_us") {
		t.Errorf("rows missing:\n%s", stdout.String())
	}
}
