package mapreduce

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// Property: a run on 1 worker and a run on many produce the same results,
// aligned with the inputs, through Map and through ForEach.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	f := func(data []uint8) bool {
		idx := make([]int, len(data))
		for i := range idx {
			idx[i] = i
		}
		label := func(i int) string { return fmt.Sprintf("%d:%d", i, data[i]) }
		for _, workers := range []int{1, 8} {
			mapped := Map(Config{Workers: workers}, idx, label)
			each := make([]string, len(data))
			ForEach(Config{Workers: workers}, len(data), func(i int) { each[i] = label(i) })
			if len(mapped) != len(data) {
				return false
			}
			for i := range data {
				if mapped[i] != label(i) || each[i] != label(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// recoverPanic runs fn and returns the recovered *Panic (nil if fn
// returned normally).
func recoverPanic(fn func()) (p *Panic) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if p, ok = r.(*Panic); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

func TestPanickingMapperDoesNotKillProcess(t *testing.T) {
	inputs := make([]int, 64)
	for i := range inputs {
		inputs[i] = i
	}
	p := recoverPanic(func() {
		Map(Config{Workers: 4}, inputs, func(i int) int {
			if i == 17 {
				panic("mapper boom")
			}
			return i
		})
	})
	if p == nil {
		t.Fatal("panic was swallowed instead of re-raised on the caller")
	}
	if p.Value != "mapper boom" {
		t.Errorf("panic value = %v", p.Value)
	}
	if len(p.Stack) == 0 {
		t.Error("worker stack not captured")
	}
}

func TestPanicCancelsRemainingWork(t *testing.T) {
	// After the first panic, draining workers must skip remaining inputs;
	// with a single worker the count is deterministic.
	inputs := make([]int, 1000)
	for i := range inputs {
		inputs[i] = i
	}
	// Workers: 2 takes the parallel path (the serial path never spawns
	// goroutines); one of the two panics immediately.
	ran := make([]bool, len(inputs))
	recoverPanic(func() {
		ForEach(Config{Workers: 2}, len(inputs), func(i int) {
			if i == 0 {
				panic("early boom")
			}
			ran[i] = true
			time.Sleep(10 * time.Microsecond) // give the capture a chance to raise the flag
		})
	})
	count := 0
	for _, r := range ran {
		if r {
			count++
		}
	}
	if count == len(inputs)-1 {
		t.Error("no remaining work was cancelled after the panic")
	}
}

func TestPanicEveryInputStillTerminates(t *testing.T) {
	inputs := make([]int, 100)
	p := recoverPanic(func() {
		Map(Config{Workers: 8}, inputs, func(i int) int { panic(i) })
	})
	if p == nil {
		t.Fatal("no panic surfaced")
	}
}

// TestForEachSerialAllocationFree pins the serial fast path: an
// uninstrumented single-worker ForEach is a bare loop with no channel,
// goroutine, or per-item allocations.
func TestForEachSerialAllocationFree(t *testing.T) {
	sum := 0
	body := func(i int) { sum += i } // hoisted so the closure itself isn't counted
	allocs := testing.AllocsPerRun(20, func() {
		ForEach(Config{Workers: 1}, 1024, body)
	})
	if allocs != 0 {
		t.Errorf("serial ForEach allocates %.0f times, want 0", allocs)
	}
}

// TestMapAllocationBound pins Map's allocation behaviour: one output
// slice plus per-chunk (not per-item) dispatch overhead.
func TestMapAllocationBound(t *testing.T) {
	inputs := make([]int, 4096)
	for i := range inputs {
		inputs[i] = i
	}
	serial := testing.AllocsPerRun(20, func() {
		Map(Config{Workers: 1}, inputs, func(i int) int { return i * 2 })
	})
	// The output slice plus the escaping per-item closure handed to
	// dispatch.
	if serial > 2 {
		t.Errorf("serial Map allocates %.0f times, want <= 2", serial)
	}
	parallel := testing.AllocsPerRun(20, func() {
		Map(Config{Workers: 4}, inputs, func(i int) int { return i * 2 })
	})
	// Output slice + task channel + worker goroutines + ~workers×4 chunk
	// tasks; far below one allocation per item (4096).
	if parallel > 64 {
		t.Errorf("parallel Map allocates %.0f times for %d items, want <= 64", parallel, len(inputs))
	}
}
