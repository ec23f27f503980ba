package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"akb/internal/core"
	"akb/internal/obs"
)

// cmdProfile runs the pipeline under the Go profilers with the obs stage
// spans recording beside them: the spans say where a run's time goes per
// stage, the pprof files say where it goes per function.
//
// It writes into -out:
//
//	cpu.pprof    CPU profile across all -runs pipeline executions
//	heap.pprof   post-run heap profile (after a GC, so live objects)
//	report.json  the RunReport of those executions, the file `akb report`
//	             renders (one row per stage span, so -runs 2 lists each
//	             stage twice)
//
// and prints that report's per-stage table. Inspect the profiles with
// `go tool pprof <file>`.
func cmdProfile(args []string) error {
	fs, seed := newFlagSet("profile")
	outDir := fs.String("out", "profile", "directory for cpu.pprof, heap.pprof and report.json")
	parallel := fs.Int("parallel", 0, "DAG-scheduler parallelism for the profiled runs (0 or 1: serial)")
	runs := fs.Int("runs", 1, "pipeline executions under the profiler (more runs, more CPU samples)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs %d < 1", *runs)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	opts := []core.Option{core.WithSeed(*seed)}
	if *parallel != 0 {
		opts = append(opts, core.WithParallelism(*parallel))
	}

	cpuPath := filepath.Join(*outDir, "cpu.pprof")
	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		cpuFile.Close()
		return fmt.Errorf("start cpu profile: %w", err)
	}

	run := obs.NewRun()
	ctx := obs.Into(context.Background(), run)
	wallStart := time.Now()
	var runErr error
	for i := 0; i < *runs; i++ {
		if _, err := core.New(opts...).Run(ctx); err != nil {
			runErr = fmt.Errorf("pipeline run %d: %w", i+1, err)
			break
		}
	}
	wall := time.Since(wallStart)
	pprof.StopCPUProfile()
	if err := cpuFile.Close(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}

	// Heap after a forced GC: live allocations, not garbage awaiting
	// collection.
	runtime.GC()
	heapPath := filepath.Join(*outDir, "heap.pprof")
	heapFile, err := os.Create(heapPath)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(heapFile); err != nil {
		heapFile.Close()
		return fmt.Errorf("write heap profile: %w", err)
	}
	if err := heapFile.Close(); err != nil {
		return err
	}

	rr, err := run.Report(nil)
	if err != nil {
		return err
	}
	reportPath := filepath.Join(*outDir, "report.json")
	if err := writeJSONFile(reportPath, rr); err != nil {
		return err
	}

	fmt.Printf("Profiled %d run(s), parallel=%d, wall %s\n", *runs, *parallel, wall.Round(time.Millisecond))
	printStageTable(rr)
	fmt.Printf("\nProfiles: %s, %s (inspect with `go tool pprof <file>`); RunReport: %s (render with `akb report %s`)\n",
		cpuPath, heapPath, reportPath, reportPath)
	return nil
}
