package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"time"
)

// The box this benchmark runs on is a small virtual machine on a shared
// host, and for minutes at a time it runs everything 10 to 30% slower: the
// program, the benchmark, a plain loop. Two sets of runs of the same code
// taken a quarter of an hour apart then differ by more than any change the
// benchmark is there to judge. That slowdown is common to all the work of a
// run, so every run measures it and takes it out:
//
//   - three times in every round (and around every fixture build) it times
//     calibrationWork, a fixed piece of work that is none of the program's;
//   - the run's slowdown is the lowest decile of its calibrations over
//     calibReferenceMS, what that decile is when nothing disturbs the box;
//   - every duration the run reports is divided by the slowdown and every
//     rate multiplied by it: the numbers are times at the box's reference
//     speed. Counts, bytes, shares and ratios are reported as measured.
//
// The fast end of the calibrations is paired with the fastest round of every
// timing (see measure): both are taken at the box's best moments during the
// run. It is the lowest decile and not the single fastest of the 80-odd
// samples because a 6 ms sample finds a quieter moment than a window of half
// a second can. Over same-seed runs in a slow half hour the calibration and
// the closed-loop median correlate at 0.9, and the correction takes the
// timings' spread between quartiles from 9% to 3%; over ten sets of ten runs
// in all weathers from 9% to 6.6% on average; in a quiet half hour it
// changes nothing. The slowdown is reported (calib.slowdown, and in every
// record), so the time that passed on the wall is the reported one times it.
const calibReferenceMS = 6.8

var calibSink int

// calibrationWork is some 6 ms of what the program spends its time on —
// strings, map inserts, sorting, allocation, JSON — written here so that no
// change to the program changes it.
func calibrationWork() {
	const n = 20000
	m := make(map[string][]int)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := "entity/" + strconv.Itoa(i*7919%20011)
		keys = append(keys, k)
		m[k] = append(m[k], i)
	}
	sort.Strings(keys)
	type row struct {
		K string
		V []int
	}
	rows := make([]row, 0, n/10)
	for _, k := range keys[:n/10] {
		rows = append(rows, row{k, m[k]})
	}
	b, err := json.Marshal(rows)
	if err != nil {
		panic(err) // a slice of strings and ints always marshals
	}
	calibSink += len(b)
}

// calibrationSamples times calibrationWork three times, in milliseconds.
func calibrationSamples() []float64 {
	out := make([]float64, 3)
	for i := range out {
		start := time.Now()
		calibrationWork()
		out[i] = millis(time.Since(start))
	}
	return out
}

func (r *run) calibrate() { r.calib = append(r.calib, calibrationSamples()...) }

// calibMS is the run's calibration: the lowest decile of its samples.
func (r *run) calibMS() float64 { return quantile(r.calib, 0.1) }

// slowdown is how much slower than its reference speed the box ran during
// this run, at its best moments.
func (r *run) slowdown() float64 { return r.calibMS() / calibReferenceMS }

// atReferenceSpeed converts a measured value with the given unit to the
// box's reference speed.
func atReferenceSpeed(v float64, unit string, slowdown float64) float64 {
	switch unit {
	case "s", "ms", "us":
		return v / slowdown
	case "1/s":
		return v * slowdown
	}
	return v
}
