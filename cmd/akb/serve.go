package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"akb/internal/core"
	"akb/internal/obs"
	"akb/internal/resilience"
	"akb/internal/serve"
	"akb/internal/store"
)

// cmdServe exposes the fused KB over HTTP. It either loads a snapshot
// written by `akb pipeline -snapshot` or, without one, runs the pipeline
// inline and serves the fresh result.
//
// Snapshot-backed servers hot-reload: SIGHUP or POST /v1/admin/reload
// re-reads the snapshot off the serving path and swaps it in atomically;
// a bad replacement (missing, corrupt, empty) leaves the old store
// serving and /healthz reporting degraded.
//
// The -chaos-* flags wrap the store with deterministic fault injection
// (internal/resilience.FaultPlan aimed at store reads) so the serving
// path's robustness — panic isolation, timeouts, shedding — can be
// exercised on a live process; internal/serve's model test
// (TestServerMatchesModel) checks the same behaviour against a model of
// the server.
func cmdServe(args []string) error {
	fs, seed := newFlagSet("serve")
	snapPath := fs.String("snapshot", "", "serve this snapshot file instead of running the pipeline")
	shards := fs.Int("shards", 0, "serving shard count: 0 keeps the snapshot's stored layout (8 for an inline pipeline run), 1 forces one flat store, N re-shards")
	cfg := serve.DefaultConfig()
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	fs.IntVar(&cfg.MaxInFlight, "max-inflight", cfg.MaxInFlight, "maximum concurrent requests before shedding with 429")
	fs.DurationVar(&cfg.RequestTimeout, "timeout", cfg.RequestTimeout, "per-request timeout (503 on expiry)")
	fs.DurationVar(&cfg.DrainTimeout, "drain", cfg.DrainTimeout, "graceful shutdown drain window on SIGTERM/SIGINT")
	chaosFail := fs.Float64("chaos-fail", 0, "per-read probability of an injected store panic (0 disables chaos)")
	chaosLatency := fs.Duration("chaos-latency", 0, "injected latency on every chaos-faulted store read")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for deterministic chaos decisions")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate admin address (e.g. 127.0.0.1:6060; empty disables)")
	accessLog := fs.String("access-log", "stderr", "structured access-log destination: stderr, off, or a file path")
	logLevel := fs.String("log-level", "info", "minimum access-log level (debug, info, warn, error; a 5xx logs at error, anything else at info)")
	traceCap := fs.Int("trace-cap", 4096, "max request spans retained in the in-process trace (0: unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chaosFail < 0 || *chaosFail > 1 {
		return fmt.Errorf("-chaos-fail %v outside [0,1]", *chaosFail)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}

	// One telemetry run for the process: request spans (capped so the
	// trace cannot grow without bound), serve metrics, and — via the
	// shared registry — the /metrics exposition in both formats.
	run := obs.NewRun()
	run.Trace().SetLimit(*traceCap)
	cfg.Obs = run

	var logTo io.Writer
	switch *accessLog {
	case "off", "":
		// no access log
	case "stderr":
		logTo = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open access log: %w", err)
		}
		defer f.Close()
		logTo = f
	}
	if logTo != nil {
		cfg.AccessLog = slog.New(slog.NewJSONHandler(logTo, &slog.HandlerOptions{Level: level}))
	}

	var st *store.Sharded
	if *snapPath != "" {
		var info store.SnapshotInfo
		var err error
		if st, info, err = openSnapshot(*snapPath, *shards); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded snapshot %s (%s): %d entities, %d classes, serving %d shard(s)\n",
			*snapPath, info, st.EntityCount(), len(st.Classes()), st.ShardCount())
		cfg.Reloader = snapshotReloader(*snapPath, *shards)
	} else {
		fmt.Fprintf(os.Stderr, "no -snapshot given; running pipeline (seed %d) ...\n", *seed)
		res, err := core.New(core.WithSeed(*seed)).Run(context.Background())
		if err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		st = store.NewSharded(store.ResultFacts(res), *shards)
		fmt.Fprintf(os.Stderr, "pipeline done: serving %d facts, %d entities in %d shard(s) (no snapshot: hot reload disabled)\n",
			st.Len(), st.EntityCount(), st.ShardCount())
	}

	if *chaosFail > 0 || *chaosLatency > 0 {
		plan := &resilience.FaultPlan{
			Seed:    *chaosSeed,
			Default: resilience.StageFault{FailProb: *chaosFail, Transient: true, Latency: *chaosLatency},
		}
		ctl := store.NewChaosController(plan)
		cfg.WrapQuerier = ctl.Wrap
		fmt.Fprintf(os.Stderr, "CHAOS MODE: injecting store faults (%s) — 500s are expected, the process dying is not\n", plan)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	srv := serve.New(st, run.Registry(), cfg)

	// Opt-in profiling: pprof lives on its own admin listener, never the
	// query port.
	if *pprofAddr != "" {
		admin := &http.Server{Addr: *pprofAddr, Handler: serve.AdminHandler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			fmt.Fprintf(os.Stderr, "pprof admin mux on http://%s/debug/pprof/\n", *pprofAddr)
			if err := admin.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "pprof admin mux: %v\n", err)
			}
		}()
		defer admin.Close()
	}

	// SIGHUP = operator asked for a zero-downtime snapshot reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if info, err := srv.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "reload failed (still serving generation %d): %v\n", srv.Generation(), err)
			} else {
				fmt.Fprintf(os.Stderr, "reloaded: generation %d, %d facts, %d entities\n",
					info.Generation, info.Facts, info.Entities)
			}
		}
	}()

	fmt.Fprintf(os.Stderr, "listening on %s (GET /healthz, /readyz, /metrics [?format=prom], /v1/entity/{id}, /v1/triples/{entity}/{attr}, /v1/query; POST /v1/datalog, /v1/admin/reload; SIGHUP reloads)\n", cfg.Addr)
	if err := srv.ListenAndServe(ctx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "drained, bye")
	return nil
}
