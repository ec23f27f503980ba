package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; negative n is ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta to the gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. An observation lands in the
// first bucket whose upper bound is >= the value; values above every bound
// land in the implicit overflow bucket. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending inclusive upper bounds
	counts []int64   // len(bounds)+1; last is overflow
	count  int64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// LatencyBuckets returns the default latency bounds in seconds: 100µs to
// 10s, roughly log-spaced — wide enough for both a single mapreduce task
// and a whole pipeline stage.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// FanoutBuckets returns power-of-two bounds for parallelism and fanout
// distributions (worker counts, group sizes).
func FanoutBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// TaskLatencyBuckets returns executor task bounds in seconds. Mapreduce
// chunks complete in single-digit microseconds once granularity is
// coarsened, and queue wait on a buffered channel is often sub-microsecond;
// the default LatencyBuckets — which start at 100µs — collapsed every
// observation into the first bucket and hid exactly the dispatch overhead
// the parallelism work attacks. These bounds start at 1µs and stay
// log-spaced up to 1s so both a tiny chunk and a whole coarse shard resolve.
func TaskLatencyBuckets() []float64 {
	return []float64{
		0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 1,
	}
}

// ServeLatencyBuckets returns the HTTP route latency bounds in seconds.
// The indexed store answers most routes in tens of microseconds
// (req_p50_us in bench/baseline.json), so the default LatencyBuckets —
// which start at 100µs — collapsed nearly every observation into the
// first bucket.
// These bounds start at 10µs and stay log-spaced up to 5s so both the
// fast path and timeout-bound stragglers resolve.
func ServeLatencyBuckets() []float64 {
	return []float64{
		0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.01, 0.05, 0.25, 1, 5,
	}
}

// Registry is a concurrency-safe, name-keyed metric store. Metrics are
// created on first use; repeated lookups return the same instance. A
// metric series is identified by its name plus an optional label set
// (CounterWith/GaugeWith), mirroring the Prometheus data model. All
// methods are nil-safe: a nil *Registry hands out nil metrics whose
// methods no-op, so instrumented code never branches on telemetry being
// enabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*counterSeries
	gauges   map[string]*gaugeSeries
	hists    map[string]*histSeries
}

// counterSeries, gaugeSeries and histSeries bind one metric instance to
// its identity (name + immutable label set). The registry map key is
// seriesKey(name, labels), so every distinct label combination is its
// own series.
type counterSeries struct {
	name   string
	labels map[string]string
	c      *Counter
}

type gaugeSeries struct {
	name   string
	labels map[string]string
	g      *Gauge
}

type histSeries struct {
	name string
	h    *Histogram
}

// seriesKey builds the registry map key for a labeled series: the name,
// then label pairs sorted by key, joined with separators that cannot
// appear in metric names. Keys therefore sort by name first, then by
// label set, which is the export order.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	b = append(b, name...)
	for _, k := range keys {
		b = append(b, 0)
		b = append(b, k...)
		b = append(b, 1)
		b = append(b, labels[k]...)
	}
	return string(b)
}

// copyLabels snapshots a caller-supplied label map so later mutation by
// the caller cannot change a registered series' identity.
func copyLabels(labels map[string]string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	return out
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*counterSeries),
		gauges:   make(map[string]*gaugeSeries),
		hists:    make(map[string]*histSeries),
	}
}

// Counter returns the named (unlabeled) counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.CounterWith(name, nil) }

// CounterWith returns the counter series for name plus the given label
// set, creating it on first use. The labels are copied; each distinct
// label combination is an independent series.
func (r *Registry) CounterWith(name string, labels map[string]string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(name, labels)
	s, ok := r.counters[key]
	if !ok {
		s = &counterSeries{name: name, labels: copyLabels(labels), c: &Counter{}}
		r.counters[key] = s
	}
	return s.c
}

// Gauge returns the named (unlabeled) gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeWith(name, nil) }

// GaugeWith returns the gauge series for name plus the given label set,
// creating it on first use; see CounterWith.
func (r *Registry) GaugeWith(name string, labels map[string]string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(name, labels)
	s, ok := r.gauges[key]
	if !ok {
		s = &gaugeSeries{name: name, labels: copyLabels(labels), g: &Gauge{}}
		r.gauges[key] = s
	}
	return s.g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds default to LatencyBuckets). The
// bounds of an existing histogram are never changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		s = &histSeries{name: name, h: &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}}
		r.hists[name] = s
	}
	return s.h
}

// Bucket is one exported histogram bucket: the inclusive upper bound and
// the number of observations that landed in it.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Metric is one exported metric sample.
type Metric struct {
	Name string `json:"name"`
	// Kind is "counter", "gauge" or "histogram".
	Kind string `json:"kind"`
	// Labels identify a labeled series (CounterWith/GaugeWith); empty for
	// plain metrics, so pre-label JSON output is unchanged.
	Labels map[string]string `json:"labels,omitempty"`
	// Value holds counter and gauge values.
	Value float64 `json:"value,omitempty"`
	// Count, Sum, Buckets and Overflow describe histograms; Overflow
	// counts observations above the last bucket bound.
	Count    int64    `json:"count,omitempty"`
	Sum      float64  `json:"sum,omitempty"`
	Buckets  []Bucket `json:"buckets,omitempty"`
	Overflow int64    `json:"overflow,omitempty"`
}

// Snapshot exports every metric, sorted by name (then label set) for
// stable output. It is safe to call concurrently with metric updates and
// returns an empty slice on a nil registry.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	type keyed struct {
		key string
		m   Metric
	}
	out := make([]keyed, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for key, s := range r.counters {
		out = append(out, keyed{key, Metric{Name: s.name, Kind: "counter", Labels: copyLabels(s.labels), Value: float64(s.c.Value())}})
	}
	for key, s := range r.gauges {
		out = append(out, keyed{key, Metric{Name: s.name, Kind: "gauge", Labels: copyLabels(s.labels), Value: s.g.Value()}})
	}
	for key, s := range r.hists {
		h := s.h
		h.mu.Lock()
		m := Metric{Name: s.name, Kind: "histogram", Count: h.count, Sum: h.sum}
		for i, b := range h.bounds {
			if h.counts[i] > 0 {
				m.Buckets = append(m.Buckets, Bucket{LE: b, Count: h.counts[i]})
			}
		}
		m.Overflow = h.counts[len(h.bounds)]
		h.mu.Unlock()
		out = append(out, keyed{key, m})
	}
	// The series key leads with the name, so sorting by it orders by name
	// first and label set second.
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	ms := make([]Metric, len(out))
	for i, k := range out {
		ms[i] = k.m
	}
	return ms
}
