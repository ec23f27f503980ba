// Package mapreduce is a chunked, panic-safe, deterministic parallel map.
// Dong et al. (VLDB'14) scale data fusion to knowledge fusion by computing
// each data item independently and updating source quality once over the
// results; the fusion methods in internal/fusion and the per-page passes of
// the DOM and text extractors fan out through Map and ForEach here.
//
// Work is dispatched in contiguous input chunks of roughly
// len(inputs)/(workers*chunksPerWorker) items rather than one item at a
// time, because per-item dispatch (channel hand-off, clock reads,
// histogram locks) costs more than the per-item work itself. Outputs are
// always written by input index, so neither chunking nor the worker count
// changes result order.
package mapreduce

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"akb/internal/obs"
)

// Panic wraps a panic captured inside a worker goroutine. The executor
// re-raises it on the caller's goroutine, so a panicking item function
// does not kill the process: callers (such as the pipeline supervisor) can
// recover it like any synchronous panic. Value is the original panic value
// and Stack the worker's stack at capture time.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprintf("mapreduce worker panic: %v", p.Value) }

func (p *Panic) String() string {
	return fmt.Sprintf("mapreduce worker panic: %v\nworker stack:\n%s", p.Value, p.Stack)
}

// capture runs fn, recording the first panic across workers into caught
// and raising the failed flag so remaining work is skipped.
func capture(once *sync.Once, failed *atomic.Bool, caught **Panic, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			failed.Store(true)
			once.Do(func() {
				if p, ok := r.(*Panic); ok {
					*caught = p // nested executor: keep the innermost capture
					return
				}
				*caught = &Panic{Value: r, Stack: debug.Stack()}
			})
		}
	}()
	fn()
}

// Config controls executor parallelism.
type Config struct {
	// Workers is the number of concurrent workers; defaults to GOMAXPROCS.
	Workers int
	// Obs, when set, records executor telemetry into the registry: worker
	// fanout per call, per-chunk latency histograms, queue wait (time a
	// chunk spends between submission and worker pickup) and the number of
	// items behind those chunks. nil disables instrumentation with zero
	// overhead on the hot path.
	Obs *obs.Registry
}

// Metric names the executor emits.
const (
	metricFanout      = "akb_mapreduce_fanout"
	metricQueueWait   = "akb_mapreduce_queue_wait_seconds"
	metricTasks       = "akb_mapreduce_map_tasks_total"
	metricItems       = "akb_mapreduce_map_items_total"
	metricTaskSeconds = "akb_mapreduce_map_task_seconds"
)

// chunksPerWorker is the dispatch granularity: each call is split into
// about workers*chunksPerWorker contiguous chunks. Coarse enough that
// hand-off cost amortises across many items, fine enough that an uneven
// chunk cannot leave workers idle for a whole tail.
const chunksPerWorker = 4

// callObs carries the instruments, resolved once per call so workers do
// not hit the registry maps per chunk. A nil *callObs records nothing.
type callObs struct {
	tasks *obs.Counter
	items *obs.Counter
	lat   *obs.Histogram
	wait  *obs.Histogram
}

func newCallObs(reg *obs.Registry, fanout int) *callObs {
	if reg == nil {
		return nil
	}
	reg.Histogram(metricFanout, obs.FanoutBuckets()).Observe(float64(fanout))
	return &callObs{
		tasks: reg.Counter(metricTasks),
		items: reg.Counter(metricItems),
		lat:   reg.Histogram(metricTaskSeconds, obs.TaskLatencyBuckets()),
		wait:  reg.Histogram(metricQueueWait, obs.TaskLatencyBuckets()),
	}
}

// run times one chunk when instrumentation is on; otherwise it just runs it.
func (po *callObs) run(enqueued time.Time, items int, fn func()) {
	if po == nil {
		fn()
		return
	}
	start := time.Now()
	po.wait.Observe(start.Sub(enqueued).Seconds())
	fn()
	po.lat.Observe(time.Since(start).Seconds())
	po.tasks.Inc()
	po.items.Add(int64(items))
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// task is one contiguous chunk of input indices [lo, hi) handed to a
// worker; enqueued is set only when the call is instrumented, so the
// uninstrumented hot path never reads the clock.
type task struct {
	lo, hi   int
	enqueued time.Time
}

// dispatch runs item(i) for every i in [0, n), grouped into contiguous
// chunks. Chunks execute in parallel across min(cfg.Workers, n) workers;
// with one worker they run inline on the caller's goroutine (no
// goroutines, panics propagate synchronously). item is always invoked with
// ascending indices within a chunk, and chunk outputs must be written by
// index, so results are identical at any worker count.
//
// Workers are panic-safe: if item panics, in-flight chunks stop at the
// next item boundary, queued chunks are drained without working, and the
// first captured panic is re-raised on the caller's goroutine as a *Panic.
func dispatch(cfg Config, n int, item func(i int)) {
	w := cfg.workers()
	if w > n {
		w = n
	}
	po := newCallObs(cfg.Obs, w)
	if w <= 1 {
		if po == nil {
			for i := 0; i < n; i++ {
				item(i)
			}
			return
		}
		size := chunkSize(n, 1)
		for lo := 0; lo < n; lo += size {
			hi := min(lo+size, n)
			po.run(time.Now(), hi-lo, func() {
				for i := lo; i < hi; i++ {
					item(i)
				}
			})
		}
		return
	}
	size := chunkSize(n, w)
	nchunks := (n + size - 1) / size
	var (
		wg     sync.WaitGroup
		once   sync.Once
		failed atomic.Bool
		caught *Panic
	)
	// The channel is buffered to hold every chunk: submission never blocks
	// and needs no extra goroutine, and queue wait measures real pickup
	// delay rather than producer back-pressure.
	ch := make(chan task, nchunks)
	for lo := 0; lo < n; lo += size {
		t := task{lo: lo, hi: min(lo+size, n)}
		if po != nil {
			t.enqueued = time.Now()
		}
		ch <- t
	}
	close(ch)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				if failed.Load() {
					continue // a sibling panicked: drain without working
				}
				po.run(t.enqueued, t.hi-t.lo, func() {
					capture(&once, &failed, &caught, func() {
						for i := t.lo; i < t.hi; i++ {
							if failed.Load() {
								return // stop promptly mid-chunk
							}
							item(i)
						}
					})
				})
			}
		}()
	}
	wg.Wait()
	if caught != nil {
		panic(caught)
	}
}

// chunkSize is the per-chunk item count for n items on w workers.
func chunkSize(n, w int) int {
	size := n / (w * chunksPerWorker)
	if size < 1 {
		return 1
	}
	return size
}

// Map applies fn to every input in parallel and returns the outputs
// aligned with the inputs; the only allocation of its own is the output
// slice.
func Map[I, O any](cfg Config, inputs []I, fn func(I) O) []O {
	out := make([]O, len(inputs))
	dispatch(cfg, len(inputs), func(i int) { out[i] = fn(inputs[i]) })
	return out
}

// ForEach runs fn(i) for every i in [0, n) in parallel, allocating
// nothing. Callers write results into pre-allocated state indexed by i —
// the shape iterative jobs (like the fusion EM loop) want, where output
// buffers are reused across rounds.
func ForEach(cfg Config, n int, fn func(i int)) {
	dispatch(cfg, n, fn)
}
