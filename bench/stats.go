package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the p-quantile of xs (0 <= p <= 1), interpolating between
// the two nearest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	i := p * float64(len(s)-1)
	lo := int(i)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(i-float64(lo))
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), so
// a spread computed here equals the one the acceptance procedure computes.
// It needs at least two values; with fewer every cut is the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n // outside 0..n when j was clamped: the cut extrapolates, as Python's does
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance of xs as a share of its median —
// the steadiness measure every bound in BENCHMARK.json is compared with.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// latencies is a set of per-operation durations; percentile sorts it in
// place on first use.
type latencies struct {
	d      []time.Duration
	sorted bool
}

func (l *latencies) add(d time.Duration) {
	l.d = append(l.d, d)
	l.sorted = false
}

func (l *latencies) merge(o *latencies) {
	l.d = append(l.d, o.d...)
	l.sorted = false
}

func (l *latencies) len() int { return len(l.d) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample with at least p% of the samples at or below it. Nearest
// rank never interpolates, so a reported p99 is a latency some request
// really had.
func (l *latencies) percentile(p float64) time.Duration {
	if len(l.d) == 0 {
		return 0
	}
	if !l.sorted {
		slices.Sort(l.d)
		l.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(l.d))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(l.d) {
		rank = len(l.d)
	}
	return l.d[rank-1]
}

// shareAbove returns the share of samples strictly greater than limit.
func (l *latencies) shareAbove(limit time.Duration) float64 {
	if len(l.d) == 0 {
		return 0
	}
	n := 0
	for _, d := range l.d {
		if d > limit {
			n++
		}
	}
	return float64(n) / float64(len(l.d))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
