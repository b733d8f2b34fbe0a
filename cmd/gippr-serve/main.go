// Command gippr-serve is the simulation-as-a-service daemon: a long-lived
// HTTP/JSON job API over the shared memoized Lab engine, so repeated grid
// evaluations are served from warm stream captures and memoized replays
// instead of rebuilt from cold per invocation.
//
// Usage:
//
//	gippr-serve [-addr host:port] [-addr-file path] [-scale smoke|default|full]
//	            [-records N] [-warm frac] [-jobs N] [-queue N] [-lab-workers N]
//	            [-timeout dur] [-max-timeout dur] [-retry-after dur]
//	            [-drain-timeout dur] [-store dir] [-store-max-bytes N]
//	            [-http-timeout dur] [-max-body N]
//
// With -store, results persist in a disk-backed content-addressed store
// keyed by the result fingerprint: across restarts, a repeat submission is
// served from disk (queued -> running -> done with zero grid recompute),
// and /metrics reports store_hits / store_misses / store_corrupt /
// store_entries / store_bytes. -store-max-bytes bounds the store's size by
// evicting oldest entries first (0 = unbounded).
//
// API (see DESIGN.md section 10 and the README "serving" section):
//
//	POST   /v1/jobs             submit a {workloads x policies x sampling} grid
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result manifest of a completed job
//	GET    /v1/jobs/{id}/stream NDJSON per-cell results as they complete
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /metrics             queue depth, jobs in flight, records/sec,
//	                            per-policy latency histograms
//	GET    /healthz             liveness (503 while draining), scale and
//	                            cache geometry
//	GET    /debug/vars,/debug/pprof/  live gauges and profiling
//
// Submissions beyond the queue bound are rejected with 429 + Retry-After,
// never blocked; bodies beyond -max-body get 413. SIGINT/SIGTERM drains
// gracefully: intake stops (503), queued jobs are rejected, in-flight jobs
// finish, and the process exits 0; if -drain-timeout expires first,
// in-flight jobs are force-cancelled and the exit code is 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"gippr/internal/experiments"
	"gippr/internal/resultstore"
	"gippr/internal/runctx"
	"gippr/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8390", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	scaleFlag := flag.String("scale", "", "experiment scale: smoke, default or full (overrides GIPPR_SCALE)")
	records := flag.Int("records", 0, "memory references per workload phase, at least 1 (0 = the scale preset's)")
	warm := flag.Float64("warm", 0, "warm-up fraction of each phase, in (0, 1) (0 = the scale preset's)")
	jobs := flag.Int("jobs", 2, "job worker pool: how many jobs run concurrently")
	queue := flag.Int("queue", 8, "bounded queue depth; submissions beyond it get 429 + Retry-After")
	labWorkers := flag.Int("lab-workers", 0, "per-job grid fan-out goroutines (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
	maxTimeout := flag.Duration("max-timeout", time.Hour, "cap on request-supplied job deadlines")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before force-cancelling")
	storeDir := flag.String("store", "", "persistent content-addressed result store directory (empty = in-memory only)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "evict oldest result-store entries beyond this total size (0 = unbounded)")
	httpTimeout := flag.Duration("http-timeout", 10*time.Second, "HTTP read-header timeout (slowloris guard; idle timeout is 12x this)")
	maxBody := flag.Int64("max-body", 1<<20, "job-submission body cap in bytes; larger bodies get 413")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gippr-serve:", err)
		os.Exit(runctx.ExitUsage)
	}
	if *records != 0 || *warm != 0 {
		r, wf := scale.PhaseRecords, scale.WarmFrac
		if *records != 0 {
			r = *records
		}
		if *warm != 0 {
			wf = *warm
		}
		scale = experiments.CustomScale(r, wf)
	}
	if err := scale.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gippr-serve:", err)
		os.Exit(runctx.ExitUsage)
	}

	ctx, stop := runctx.Setup(0)
	defer stop()

	var store *resultstore.Store
	if *storeDir != "" {
		store, err = resultstore.Open(*storeDir, *storeMaxBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gippr-serve:", err)
			os.Exit(runctx.ExitFailure)
		}
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "gippr-serve: result store %s (%d entries, %d bytes)\n",
			*storeDir, st.Entries, st.Bytes)
	}

	srv := serve.New(serve.Config{
		Scale:          scale,
		Workers:        *jobs,
		QueueDepth:     *queue,
		LabWorkers:     *labWorkers,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		RetryAfter:     *retryAfter,
		Store:          store,
		MaxBodyBytes:   *maxBody,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gippr-serve:", err)
		os.Exit(runctx.ExitFailure)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gippr-serve:", err)
			os.Exit(runctx.ExitFailure)
		}
	}
	fmt.Fprintf(os.Stderr, "gippr-serve: listening on http://%s (scale %s, %d job workers, queue %d)\n",
		bound, scale.Name, *jobs, *queue)

	// ReadHeaderTimeout closes slowloris connections that trickle header
	// bytes forever; IdleTimeout reaps keep-alive connections. No global
	// write timeout: NDJSON streams legitimately stay open for a whole job.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *httpTimeout,
		IdleTimeout:       12 * *httpTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "gippr-serve:", err)
		os.Exit(runctx.ExitFailure)
	case <-ctx.Done():
	}

	// Graceful drain: stop intake and reject the queue first (so status
	// polls keep working while in-flight jobs finish), then close the HTTP
	// listener. stop() restores default signal handling, so a second
	// SIGINT/SIGTERM during a stuck drain kills the process immediately.
	stop()
	fmt.Fprintln(os.Stderr, "gippr-serve: draining (in-flight jobs finish, queued jobs rejected)")
	code := 0
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "gippr-serve: drain deadline reached; force-cancelling in-flight jobs")
		srv.Close()
		code = runctx.ExitFailure
	}
	dcancel()
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	httpSrv.Shutdown(hctx) //nolint:errcheck // best-effort close on exit
	hcancel()
	fmt.Fprintln(os.Stderr, "gippr-serve: drained, exiting")
	os.Exit(code)
}
