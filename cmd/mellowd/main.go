// Command mellowd serves the simulation harness over HTTP: submit jobs,
// poll them, and fetch content-addressed results. Identical concurrent
// submissions run once; finished work is cached; load past the queue
// bound is shed with 429.
//
// Usage:
//
//	mellowd                              # listen on :8077
//	mellowd -addr :9000 -workers 8 -queue 64
//	mellowd -sim-budget 4                # at most 4 concurrent simulations, any job mix
//	mellowd -job-timeout 5m -quick
//	mellowd -joblog /var/lib/mellowd/jobs.wal  # durable queue: replay after a crash
//	mellowd -pprof-addr 127.0.0.1:6060   # net/http/pprof on a separate listener
//
// API:
//
//	POST /v1/jobs        {"kind":"sim","workload":"stream","policy":"BE-Mellow+SC"}
//	POST /v1/jobs        {"kind":"compare","workload":"gups","interval_ns":500000}
//	POST /v1/jobs        {"kind":"sim",...,"trace":true}   # record an execution trace
//	POST /v1/jobs:batch  {"jobs":[{...},{...}]}  # many submissions, one shed decision
//	GET  /v1/jobs/{id}   job status: live "progress" fraction, current
//	                     "epoch" sample, result inline when done
//	GET  /v1/jobs/{id}/events  live Server-Sent-Events feed of the job's
//	                     epoch series (curl -N; replays from the start)
//	GET  /v1/jobs/{id}/trace  finished traced job's Chrome/Perfetto trace JSON
//	GET  /v1/results/{key}  deterministic result payload by content address
//	GET  /healthz        liveness + queue depth
//	GET  /metrics        Prometheus text exposition
//
// With -joblog, every admission is fsynced to a write-ahead log before
// it is acknowledged; on startup the log is replayed and unfinished
// jobs re-enqueued under their original ids, so queued work survives a
// kill -9. A clean drain compacts the log.
//
// Profiling is opt-in and isolated: -pprof-addr serves the standard
// net/http/pprof handlers on its own mux and listener (bind it to
// loopback), never on the public API address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mellow/internal/config"
	"mellow/internal/experiments"
	"mellow/internal/joblog"
	"mellow/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "job worker pool size")
		simBudget  = flag.Int("sim-budget", runtime.GOMAXPROCS(0), "process-wide cap on concurrent simulations across all jobs")
		queue      = flag.Int("queue", 0, "admission queue bound (default 4x workers)")
		jobTimeout = flag.Duration("job-timeout", 15*time.Minute, "per-job execution cap")
		drain      = flag.Duration("drain", 10*time.Minute, "graceful-shutdown drain budget")
		maxResults = flag.Int("max-results", 1024, "finished jobs kept addressable")
		simCache   = flag.Int("sim-cache", experiments.DefaultCacheCap, "memoised simulations kept, ~580 B each for a plain run plus ~65 B per epoch sample of an observed one (<=0 unbounded)")
		joblogPath = flag.String("joblog", "", "write-ahead job log path; admissions are fsynced and replayed after a crash (empty: no durability)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty: disabled)")
		quick      = flag.Bool("quick", false, "scale default run lengths down ~10x")
	)
	flag.Parse()

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	experiments.SetCacheCap(*simCache)

	base := config.Default()
	if *quick {
		base.Run.WarmupInstructions = 1_000_000
		base.Run.DetailedInstructions = 3_000_000
	}
	var wal *joblog.Log
	if *joblogPath != "" {
		var err error
		wal, err = joblog.Open(*joblogPath)
		if err != nil {
			log.Error("joblog open failed", "path", *joblogPath, "err", err)
			os.Exit(1)
		}
		st := wal.Stats()
		log.Info("joblog opened", "path", *joblogPath,
			"replayed_records", st.Replayed, "pending_jobs", st.Pending,
			"tail_dropped", st.TailDropped)
	}

	svc := server.New(server.Config{
		Workers:    *workers,
		SimBudget:  *simBudget,
		QueueDepth: *queue,
		JobTimeout: *jobTimeout,
		MaxResults: *maxResults,
		BaseConfig: &base,
		Logger:     log,
		JobLog:     wal,
	})
	if wal != nil {
		// Replay concurrently with serving: the queue may be smaller
		// than the pending backlog, and clients re-submitting replayed
		// work simply join it.
		go func() {
			n, err := svc.Restore()
			if err != nil {
				log.Error("joblog replay incomplete", "restored", n, "err", err)
				return
			}
			log.Info("joblog replay complete", "restored", n)
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// pprof gets its own mux and listener so the profiling surface is
	// never exposed on the public API address. The default-mux handlers
	// net/http/pprof registers on import are not served anywhere — both
	// API and pprof listeners use explicit muxes.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{
			Addr:              *pprofAddr,
			Handler:           pmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("pprof listen failed", "addr", *pprofAddr, "err", err)
			}
		}()
		log.Info("pprof listening", "addr", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("mellowd listening", "addr", *addr, "workers", *workers, "sim_budget", *simBudget)

	select {
	case <-ctx.Done():
		log.Info("signal received, draining", "budget", drain.String())
	case err := <-errc:
		log.Error("listen failed", "err", err)
		os.Exit(1)
	}

	// Stop accepting connections first, then drain queued and in-flight
	// jobs before exiting.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Warn("http shutdown", "err", err)
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Warn("pprof shutdown", "err", err)
		}
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		log.Warn("drain incomplete, jobs cancelled", "err", err)
		fmt.Fprintln(os.Stderr, "mellowd: drain incomplete:", err)
		os.Exit(1)
	}
	if wal != nil {
		// A clean drain finished everything: compaction rewrites the log
		// down to whatever is still pending (normally nothing).
		if err := wal.Compact(); err != nil {
			log.Warn("joblog compaction failed", "err", err)
		}
		if err := wal.Close(); err != nil {
			log.Warn("joblog close failed", "err", err)
		}
	}
	log.Info("drained, bye")
}
