// Command serve runs the batched HTTP/JSON prediction service: the
// estimation backends behind POST /v1/estimate, with named expression
// sets (GET /v1/registry), error-bounded calibrated answers, and
// automatic sim fallback outside the calibrated (p, m) range.
//
// Point it at the sweep cache a `sweep -backend calibrated -validate`
// run populated and the service starts with the persisted fits and
// error tables already loaded — no simulation before the first
// out-of-range request:
//
//	sweep -backend calibrated -validate -cache .sweepcache
//	serve -cache .sweepcache
//
//	curl -s localhost:8080/v1/registry
//	curl -s -d '{"machine":"SP2","op":"alltoall","p":32,"m":1024}' localhost:8080/v1/estimate
//	curl -s -d '[{"machine":"T3D","op":"broadcast","p":8,"m":256},
//	             {"machine":"Paragon","op":"scatter","p":32,"m":65536}]' \
//	     'localhost:8080/v1/estimate?registry=refit-default'
//	curl -s localhost:8080/metrics
//
// Without a cache the service still answers everything; calibrations
// run on first touch (or at startup with -warm) and answers simply
// carry no expected-error bound until a validation table exists.
//
// The endpoint negotiates its codec by Content-Type: JSON by default,
// NDJSON (application/x-ndjson) for line-delimited streaming, and the
// length-prefixed binary fast wire mode (application/x-estimate-wire)
// that `predict -remote` speaks — see internal/serve/wire. Closed-form
// answers are computed per request; fallback simulations are cached per
// scenario in a bounded answer cache (-answer-cache-size). The sample
// memo holds only the calibration grid's cells, which the grid bounds.
//
// Observability: GET /metrics exposes Prometheus-format counters and
// stage-latency histograms (plus Go runtime health and a
// serve_build_info series), GET /debug/vars the same registry as
// expvar-style JSON; -log-level debug adds one structured access-log
// line per request, and -pprof-addr starts an opt-in net/http/pprof
// listener on a separate address (its own mux — profiling is never
// reachable through the serving address). Every response carries an
// X-Trace-Id (inbound value honored, otherwise minted), and a sampled
// ring of request traces — every -trace-sample'th request plus all
// errors, degraded answers, and requests slower than -trace-slow — is
// served as line-JSON at GET /debug/traces. Many serve processes
// aggregate into one fleet view behind cmd/fleetfront, whose GET
// /metrics merges every worker's series.
//
// Resilience: every request runs under a deadline (-request-timeout,
// or per request via the X-Estimate-Deadline-Ms header); a deadline
// that expires mid-simulation cancels the sim and answers degraded
// from the closed forms (fallback_reason "degraded_deadline", no
// bounds) instead of hanging. Admission control (-max-concurrent,
// -max-queue) sheds overload with 429 + Retry-After before it queues
// unboundedly. POST /v1/reload or SIGHUP atomically rebuilds the
// registry from the sweep cache without dropping in-flight requests;
// -chaos injects seeded faults into the fallback simulator for drills.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheDir  = flag.String("cache", "", "sweep cache directory (persisted fits and error tables)")
		registry  = flag.String("registry", "refit-default", "registry entry served when a request names none")
		workers   = flag.Int("workers", 0, "per-request estimation workers (0 = all cores)")
		answers   = flag.Int("answer-cache-size", 1<<18, "answer-cache capacity in fallback simulations (0 disables caching)")
		wireMode  = flag.Bool("wire", true, "serve the binary and NDJSON fast wire codecs (false = JSON only)")
		warm      = flag.Bool("warm", false, "precalibrate the default registry's triples before listening")
		quiet     = flag.Bool("quiet", false, "suppress startup logging")
		logLevel  = flag.String("log-level", "info", "structured log level (debug adds per-request access logs)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this extra address (off when empty)")
		reqTimeo  = flag.Duration("request-timeout", 30*time.Second,
			"per-request estimation deadline (0 disables; the X-Estimate-Deadline-Ms header overrides per request)")
		maxConc = flag.Int("max-concurrent", 0,
			"admission budget: requests estimating at once (0 = 2×GOMAXPROCS, negative disables admission control)")
		maxQueue = flag.Int("max-queue", 128,
			"admission queue beyond the concurrency budget; excess requests are shed with 429 + Retry-After")
		chaos = flag.String("chaos", "",
			`inject faults into the fallback simulator, e.g. "error=0.05,panic=0.01,latency=0.2:50ms,seed=7" (dev only)`)
		traceRing = flag.Int("trace-ring", 256,
			"sampled request-trace ring capacity, served at GET /debug/traces (0 disables tracing)")
		traceSample = flag.Int("trace-sample", 100,
			"capture every Nth ok request into the trace ring (0 captures only errors, degraded, and slow requests)")
		traceSlow = flag.Duration("trace-slow", time.Second,
			"always capture requests at least this slow (0 disables the slow trigger)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 2
	}
	logger := obs.NewLogger(os.Stderr, level)

	// One metric registry spans every layer: the serve counters, the
	// estimation layer's memo/expression series, and the sim kernel's
	// process-wide event totals (read at export time via CounterFunc).
	obsReg := obs.NewRegistry()
	metrics := serve.NewMetrics(obsReg)
	sim.EnableCounters(true)
	obsReg.CounterFunc("sim_kernel_events_total",
		"discrete events executed by simulation kernels, process-wide", sim.KernelEvents)
	obsReg.CounterFunc("sim_kernel_wakeups_total",
		"process wakeups scheduled by simulation kernels, process-wide", sim.KernelWakeups)
	runtimeMetrics(obsReg)
	obsReg.Gauge("serve_build_info",
		"constant 1; the labels carry the serving configuration and build version",
		obs.Label{Key: "registry", Value: *registry},
		obs.Label{Key: "version", Value: buildVersion()}).Set(1)

	// makeRegistry builds the full serving registry from scratch —
	// reopening the sweep cache so a reload picks up fits and error
	// tables persisted since startup. The sample memo is shared across
	// reloads: calibration-grid measurements are methodology-keyed and a
	// recalibration does not invalidate them.
	memo := estimate.NewSampleMemo()
	makeRegistry := func() (*estimate.Registry, int, error) {
		cache, err := sweep.OpenCache(*cacheDir)
		if err != nil {
			return nil, 0, err
		}
		cfg := estimate.RegistryConfig{Memo: memo, Workers: *workers, Obs: obsReg}
		if cache != nil {
			cfg.Store = cache
		}
		r := estimate.StandardRegistry(cfg)
		return r, sweep.AttachBounds(r, cache), nil
	}
	reg, nBounds, err := makeRegistry()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	entry, err := reg.Get(*registry)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 2
	}
	if !*quiet && *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "serve: %d of %d registry entries carry validated error bounds\n",
			nBounds, len(reg.Names()))
	}
	if *warm {
		warmUp(entry, *workers, *quiet)
	}

	// The fallback simulator, optionally wrapped in the fault injector.
	// It carries no sample memo: the bounded answer cache dedups its
	// repeats, and an unbounded memo underneath would keep every distinct
	// fallback scenario forever. Chaos mode is a dev tool: the wrapper's
	// provenance carries the fault spec, so its answers never share cache
	// entries with clean runs.
	var fallback estimate.Backend = estimate.Sim{}
	if *chaos != "" {
		fb, err := estimate.ParseFaultSpec(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve: -chaos:", err)
			return 2
		}
		fb.Inner = fallback
		fallback = &fb
		fmt.Fprintf(os.Stderr, "serve: CHAOS MODE: %s\n", fallback.Provenance())
	}

	concurrent := *maxConc
	if concurrent == 0 {
		concurrent = 2 * runtime.GOMAXPROCS(0)
	}
	server := &serve.Server{
		Registry:    reg,
		Default:     *registry,
		Sim:         fallback,
		Timeout:     *reqTimeo,
		Gate:        serve.NewGate(concurrent, *maxQueue),
		Reloader:    func() (*estimate.Registry, error) { r, _, err := makeRegistry(); return r, err },
		Workers:     *workers,
		Obs:         metrics,
		Logger:      logger,
		Cache:       serve.NewAnswerCache(*answers),
		DisableWire: !*wireMode,
	}
	if *traceRing > 0 {
		server.Traces = obs.NewTraceRing(*traceRing)
		server.TraceSample = *traceSample
		server.TraceSlow = *traceSlow
	}
	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener: the profiling
		// handlers are never reachable through the serving address, and
		// the serving mux never inherits DefaultServeMux registrations.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				fmt.Fprintln(os.Stderr, "serve: pprof:", err)
			}
		}()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "serve: pprof on %s\n", *pprofAddr)
		}
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// SIGHUP hot-reloads the registry without dropping a request: the
	// old registry serves until the new one is fully built, and the
	// answer cache, which holds only simulator results, stays valid.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if err := server.ReloadRegistry(); err != nil {
				logger.Error("registry reload failed", obs.F("error", err.Error()))
			} else {
				logger.Info("registry reloaded", obs.F("default", *registry))
			}
		}
	}()

	// SIGINT/SIGTERM drain in-flight requests before exiting, so a
	// deploy never truncates a half-answered batch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- httpServer.Shutdown(shutdownCtx)
	}()

	if !*quiet {
		fmt.Fprintf(os.Stderr, "serve: listening on %s (default registry %q)\n", *addr, *registry)
	}
	if err := httpServer.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
		return 1
	}
	requests, scenarios, fallbacks := metrics.Totals()
	drained := []obs.Field{
		obs.F("requests", requests),
		obs.F("scenarios", scenarios),
		obs.F("fallbacks", fallbacks),
	}
	if server.Traces != nil {
		drained = append(drained, obs.F("traces_sampled", server.Traces.Total()))
		if last, ok := server.Traces.Last(); ok {
			drained = append(drained, obs.F("last_trace_id", last.TraceID))
		}
	}
	logger.Info("drained", drained...)
	if !*quiet {
		fmt.Fprintln(os.Stderr, "serve: drained, bye")
	}
	return 0
}

// runtimeMetrics bridges Go runtime health into the metric registry —
// read lazily at export time through the CounterFunc hooks, so idle
// servers pay nothing between scrapes.
func runtimeMetrics(reg *obs.Registry) {
	reg.CounterFunc("go_goroutines",
		"live goroutines, read at scrape time",
		func() uint64 { return uint64(runtime.NumGoroutine()) })
	reg.CounterFunc("go_heap_alloc_bytes",
		"heap bytes allocated and still reachable, read at scrape time",
		func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		})
	reg.CounterFunc("go_gc_pause_total_ns",
		"cumulative stop-the-world GC pause nanoseconds",
		func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.PauseTotalNs
		})
}

// buildVersion is the main module's version as stamped by the Go
// toolchain — "(devel)" for plain `go build` trees.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// warmUp precalibrates every (machine, op, algorithm) triple of the
// default entry's backend, so the first batch is served warm. Entries
// without a calibration step (paper-table3) warm instantly.
func warmUp(entry *estimate.Entry, workers int, quiet bool) {
	cal, ok := entry.Backend.(*estimate.Calibrated)
	if !ok {
		return
	}
	var triples []estimate.Triple
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			for _, alg := range estimate.ValidAlgorithms(mach, op) {
				triples = append(triples, estimate.Triple{Machine: mach, Op: op, Alg: alg})
			}
		}
	}
	start := time.Now()
	cal.Precalibrate(triples, workers)
	if !quiet {
		fmt.Fprintf(os.Stderr, "serve: warmed %d calibration triples in %s\n",
			len(triples), time.Since(start).Round(time.Millisecond))
	}
}
