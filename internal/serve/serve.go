package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Scenario is one requested prediction — the wire form of a sweep grid
// point. Barrier scenarios are normalized to m = 0.
type Scenario struct {
	Machine   string `json:"machine"`
	Op        string `json:"op"`
	Algorithm string `json:"algorithm,omitempty"` // "" or "default": the vendor table
	P         int    `json:"p"`
	M         int    `json:"m"`
}

// Bound is the expected-error annotation of a closed-form answer,
// copied from the registry entry's sim-validated error table.
type Bound struct {
	// RelMedian and RelMax summarize the validated relative error of
	// the answering expression set on this (machine, op, m) cell.
	RelMedian float64 `json:"rel_median"`
	RelMax    float64 `json:"rel_max"`
	// BasisM is the validated message length the bound comes from —
	// equal to the request's m when the validation grid contained it,
	// otherwise the nearest validated length on a log scale. For
	// piecewise expression sets the lookup is confined to the protocol
	// segment that produced the answer, so a bound is never borrowed
	// across a regime boundary.
	BasisM int `json:"basis_m"`
	// Points is how many validated scenarios the cell pooled.
	Points int `json:"points"`
	// SegmentMMin/SegmentMMax delimit the fitted message-length segment
	// that answered a piecewise estimate; both are absent on single-
	// segment (affine) answers.
	SegmentMMin int `json:"segment_m_min,omitempty"`
	SegmentMMax int `json:"segment_m_max,omitempty"`
}

// Answer is one scenario's response.
type Answer struct {
	Scenario
	// Micros is the predicted (or, on fallback, simulated) headline
	// time in µs.
	Micros float64 `json:"micros"`
	// Backend names what actually answered: the registry entry's
	// backend, or "sim" on fallback.
	Backend string `json:"backend"`
	// Fallback is set when the scenario left the entry's calibrated
	// (p, m) envelope and the exact simulator answered instead.
	Fallback       bool   `json:"fallback,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	// ExpectedError bounds closed-form answers whose entry carries a
	// validated error table; absent on fallback (sim is the reference)
	// and on entries never validated.
	ExpectedError *Bound `json:"expected_error,omitempty"`
}

// Response is the estimate endpoint's envelope. Answers preserve
// request order, so the encoding is byte-stable for a fixed registry.
type Response struct {
	// Registry, Backend, and Provenance identify the expression set
	// that served the request (also exposed as X-Estimate-* headers).
	Registry   string   `json:"registry"`
	Backend    string   `json:"backend"`
	Provenance string   `json:"provenance,omitempty"`
	Answers    []Answer `json:"answers"`
}

// RegistryInfo is one row of the registry listing.
type RegistryInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Backend     string `json:"backend"`
	Provenance  string `json:"provenance,omitempty"`
	// BoundsCells is the size of the entry's attached error table;
	// zero means answers from this entry carry no expected_error.
	BoundsCells int `json:"bounds_cells"`
}

// RegistryResponse is the registry endpoint's envelope.
type RegistryResponse struct {
	Default    string         `json:"default"`
	Registries []RegistryInfo `json:"registries"`
}

// Server answers prediction requests from a registry of expression
// sets. Configure the fields before calling Handler; the handler itself
// is safe for concurrent use.
type Server struct {
	// Registry is the expression-set registry requests resolve against
	// (until a hot reload swaps in a newer one — see Reloader).
	Registry *estimate.Registry
	// Default is the registry entry served when a request names none.
	Default string
	// Sim answers out-of-range scenarios exactly; nil means a bare
	// estimate.Sim{}. Cache dedups repeated fallback simulations; wrap
	// it (estimate.FaultBackend) for chaos testing.
	Sim estimate.Backend
	// Config is the fallback simulation methodology; zero means
	// measure.Fast() — deterministic, seeded.
	Config measure.Config
	// Timeout is the default per-request estimation deadline; ≤ 0 means
	// none. A request can override it with the X-Estimate-Deadline-Ms
	// header. When the deadline expires mid-fallback the simulation is
	// cancelled and the scenario is answered degraded (closed form, no
	// bounds, fallback_reason "degraded_deadline") instead of hanging.
	Timeout time.Duration
	// Gate, when non-nil, is the admission control ahead of estimation:
	// requests beyond its concurrency budget queue, and beyond its queue
	// budget are shed with 429 + Retry-After.
	Gate *Gate
	// Reloader, when non-nil, rebuilds the registry for hot reload;
	// POST /v1/reload is mounted and ReloadRegistry swaps the result in
	// atomically. The answer cache holds only simulator results, which
	// no registry change alters, so it stays valid across the swap.
	Reloader func() (*estimate.Registry, error)
	// Workers bounds the per-request estimation pool; ≤ 0 means
	// GOMAXPROCS.
	Workers int
	// MaxBatch caps the scenarios of one request; ≤ 0 means 10000.
	MaxBatch int
	// MaxMessage caps a scenario's message length, bounding the cost a
	// single fallback simulation can impose; ≤ 0 means 16 MiB.
	MaxMessage int
	// Cache, when non-nil, memoizes fallback simulations per scenario —
	// keyed by the fallback simulator's identity and methodology, the
	// machine fingerprint, and the resolved scenario — so a repeated
	// out-of-envelope scenario skips the simulator. Closed-form answers
	// never consult it. Nil disables caching.
	Cache *AnswerCache
	// DisableWire turns off the binary and NDJSON codecs: only the
	// JSON content types are accepted, everything else is a 415. The
	// zero value serves all three.
	DisableWire bool
	// Obs, when non-nil, records the serving metrics (see NewMetrics)
	// and mounts GET /metrics and GET /debug/vars on the handler. Nil
	// serving pays one branch per request and never reads the clock.
	Obs *Metrics
	// Logger, when non-nil, receives structured access logs: one debug
	// line per estimate request with outcome and per-stage timings.
	// Lifecycle messages (listening, draining) belong to the caller.
	Logger *obs.Logger
	// Traces, when non-nil, receives sampled request traces and mounts
	// GET /debug/traces. Which requests are captured is decided by
	// TraceSample and TraceSlow: every TraceSample-th request plus
	// always-on for errors, degraded answers, deadline-exceeded, and
	// slow requests. Nil disables capture entirely.
	Traces *obs.TraceRing
	// TraceSample captures every Nth estimate request into Traces;
	// 0 samples none periodically (errors and slow requests are still
	// always captured).
	TraceSample int
	// TraceSlow always captures requests whose wall-clock latency
	// reaches it; 0 disables the slow trigger.
	TraceSlow time.Duration

	// reg holds the hot-reloaded registry; nil until the first swap,
	// after which it overrides the Registry field (see registry()).
	reg atomic.Pointer[estimate.Registry]
	// degradedOnce/degradedA lazily build the degraded-mode backend: the
	// paper's closed-form expressions, which answer instantly when a
	// deadline has already eaten the fallback simulation's budget.
	degradedOnce sync.Once
	degradedA    *estimate.Analytic
	// simOnce/simID memoize simIdentity, the part of every answer-cache
	// key that names this server's fallback simulation.
	simOnce sync.Once
	simID   string
	// traceIDs assigns per-request trace IDs. traceCount drives the
	// every-Nth sampling policy and counts only ok requests (errors are
	// always captured, so they never consume a sampling slot).
	traceIDs   TraceIDs
	traceCount atomic.Uint64
	// triples caches name binding per (machine, op, algorithm) triple:
	// the preset constructors build a fresh machine (and algorithm
	// table) on every lookup, which would otherwise dominate a batched
	// request's cost. The valid-triple space is small and fixed, so the
	// cache is naturally bounded; failed resolutions are not cached.
	triplesMu sync.RWMutex
	triples   map[tripleKey]resolved
}

// tripleKey names one (machine, op, algorithm) binding, pre-resolution.
type tripleKey struct {
	mach, op, alg string
}

// MaxBodyBytes bounds a request body; the largest legitimate grids are
// a few MB of JSON. The sharding front enforces the same cap.
const MaxBodyBytes = 16 << 20

// Handler returns the service's HTTP handler. Every route runs behind
// the panic-recovery middleware — a handler panic answers 500 instead
// of killing the connection, and the in-flight gauge (decremented by
// defer) never leaks — and the trace-ID middleware wraps that, so every
// response down to a recovered panic echoes X-Trace-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	if s.Reloader != nil {
		mux.HandleFunc("POST /v1/reload", s.handleReload)
	}
	if s.Obs != nil {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
		mux.HandleFunc("GET /debug/vars", s.handleVars)
	}
	if s.Traces != nil {
		mux.HandleFunc("GET /debug/traces", s.handleTraces)
	}
	return s.traceIDs.Middleware(s.recoverPanics(mux))
}

// recoverPanics converts a panicking handler into a 500 response. The
// response write is best-effort — a handler that already streamed its
// status keeps it — but the connection survives and per-request defers
// (gate release, in-flight decrement) have already run by the time the
// panic reaches this frame.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.Obs.panicked()
				writeError(w, http.StatusInternalServerError,
					fmt.Errorf("internal error: handler panicked: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// registry returns the registry requests resolve against: the last
// hot-reloaded one, or the configured Registry field before any reload.
func (s *Server) registry() *estimate.Registry {
	if r := s.reg.Load(); r != nil {
		return r
	}
	return s.Registry
}

// SetRegistry atomically swaps the serving registry. In-flight requests
// keep the entry they already resolved; new requests see the new
// registry. The answer cache holds only simulator results, so it needs
// no invalidation.
func (s *Server) SetRegistry(r *estimate.Registry) {
	s.reg.Store(r)
}

// ReloadRegistry rebuilds the registry through the configured Reloader
// and swaps it in. The swap is atomic and the old registry serves until
// the new one is fully built, so a reload never fails live traffic.
func (s *Server) ReloadRegistry() error {
	if s.Reloader == nil {
		return errors.New("serve: no reloader configured")
	}
	r, err := s.Reloader()
	if err != nil {
		s.Obs.reloaded(false)
		return err
	}
	if _, err := r.Get(s.Default); err != nil {
		s.Obs.reloaded(false)
		return fmt.Errorf("reloaded registry lacks the default entry: %w", err)
	}
	s.reg.Store(r)
	s.Obs.reloaded(true)
	return nil
}

// handleReload answers POST /v1/reload: rebuild, swap, report.
func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	if err := s.ReloadRegistry(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, struct {
		Status     string   `json:"status"`
		Default    string   `json:"default"`
		Registries []string `json:"registries"`
	}{"reloaded", s.Default, s.registry().Names()})
}

func (s *Server) config() measure.Config {
	if s.Config == (measure.Config{}) {
		return measure.Fast()
	}
	return s.Config
}

// simBackend returns the fallback backend: the configured Sim, or a
// bare memo-less simulator.
func (s *Server) simBackend() estimate.Backend {
	if s.Sim != nil {
		return s.Sim
	}
	return estimate.Sim{}
}

// degradedBackend returns the closed-form backend that answers
// deadline-pressed scenarios, built lazily (most servers never degrade).
func (s *Server) degradedBackend() *estimate.Analytic {
	s.degradedOnce.Do(func() { s.degradedA = estimate.PaperAnalytic() })
	return s.degradedA
}

func (s *Server) maxBatch() int {
	if s.MaxBatch <= 0 {
		return 10000
	}
	return s.MaxBatch
}

func (s *Server) maxMessage() int {
	if s.MaxMessage <= 0 {
		return 16 << 20
	}
	return s.MaxMessage
}

// resolved is a validated scenario, every name bound to its object,
// with the entry's fallback decision computed once up front.
type resolved struct {
	mach *machine.Machine
	op   machine.Op
	alg  string // "default" or a registry variant, validated
	algs mpi.Algorithms
	p, m int
	// fallback, fbKind, and fallbackReason record whether the exact
	// simulator must answer (outside the calibrated envelope, an
	// unfitted pair, or a variant the expression set cannot
	// distinguish) — the kind for metrics, the reason for the answer.
	fallback       bool
	fbKind         fallbackKind
	fallbackReason string
}

// handleEstimate answers POST /v1/estimate. The admission gate runs
// first — a shed request costs no decode, no estimation, and never
// counts as in flight — then serveEstimate is bracketed with the
// per-request instrumentation: in-flight gauge, outcome and stage
// metrics, and the debug access-log line. With neither metrics nor
// debug logging attached the request never reads the clock.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if s.Gate != nil {
		if err := s.Gate.Acquire(r.Context(), s.Obs.queueDepth()); err != nil {
			s.shed(w, r, err)
			return
		}
		defer s.Gate.Release()
	}
	logging := s.Logger.Enabled(obs.LevelDebug)
	tracing := s.Traces != nil
	if s.Obs == nil && !logging && !tracing {
		s.serveEstimate(w, r, nil)
		return
	}
	var tr obs.Trace
	if logging || tracing {
		tr.Begin(time.Now())
	}
	s.Obs.begin()
	defer s.Obs.end() // deferred so a panicking request (recovered by net/http) can't leak the in-flight gauge
	st := s.serveEstimate(w, r, &tr)
	s.Obs.observe(st, &tr)
	if !logging && !tracing {
		return
	}
	tr.Finish(time.Now(), traceOutcome(st))
	if tracing {
		s.captureTrace(TraceIDFrom(r.Context()), st, &tr)
	}
	if logging {
		s.Logger.Debug("estimate",
			obs.F("trace_id", TraceIDFrom(r.Context())),
			obs.F("status", st.status),
			obs.F("registry", st.registry),
			obs.F("scenarios", st.scenarios),
			obs.F("fallbacks", st.fallbacks),
			obs.F("bounds", st.bounds),
			obs.F("duration_ns", tr.Duration().Nanoseconds()),
			obs.F("stage_ns", stageNS(&tr)))
	}
}

// shed refuses one request at the admission gate: a full queue is 429
// with Retry-After (the client should back off and retry), a request
// that expired while queued is 503. Shed requests are counted in
// serve_shed_total{reason} and the request-outcome series but touch
// nothing else — the point of shedding is to stay cheap. They are
// still errors, so the trace ring always captures them (with empty
// stages: the request never reached the worker pool).
func (s *Server) shed(w http.ResponseWriter, r *http.Request, err error) {
	st := reqStats{codec: CodecUnknown}
	if errors.Is(err, ErrQueueFull) {
		st.status = http.StatusTooManyRequests
		st.shed = shedQueueFull
		w.Header().Set("Retry-After", "1")
		writeError(w, st.status, errors.New("overloaded: admission queue full; retry after the Retry-After delay"))
	} else {
		st.status = http.StatusServiceUnavailable
		st.shed = shedTimeout
		writeError(w, st.status, fmt.Errorf("request expired in the admission queue: %v", err))
	}
	s.Obs.observe(st, nil)
	if s.Traces != nil {
		var tr obs.Trace
		now := time.Now()
		tr.Begin(now)
		tr.Finish(now, traceOutcome(st))
		s.captureTrace(TraceIDFrom(r.Context()), st, &tr)
	}
}

// deadlineHeader is the per-request deadline override, in milliseconds.
const deadlineHeader = "X-Estimate-Deadline-Ms"

// requestDeadline decides one request's estimation deadline: the
// X-Estimate-Deadline-Ms header wins over the server's configured
// Timeout; neither means the request runs unbounded.
func requestDeadline(r *http.Request, def time.Duration) (time.Duration, bool, error) {
	if h := r.Header.Get(deadlineHeader); h != "" {
		ms, err := strconv.Atoi(h)
		if err != nil || ms <= 0 {
			return 0, false, fmt.Errorf("invalid %s header %q: want a positive integer millisecond count", deadlineHeader, h)
		}
		return time.Duration(ms) * time.Millisecond, true, nil
	}
	if def > 0 {
		return def, true, nil
	}
	return 0, false, nil
}

// stageNS flattens a trace into the access-log object (encoding/json
// sorts the keys, so lines stay stable).
func stageNS(tr *obs.Trace) map[string]int64 {
	out := make(map[string]int64, obs.NumStages)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		out[st.String()] = tr.NS(st)
	}
	return out
}

// stageTimer charges a request's sequential stages by chaining marks
// off one base timestamp: a mark is a single monotonic-clock delta
// (time.Since), roughly half the cost of a full time.Now, and the
// stages tile the request with no gaps. The zero value (nil trace) is
// a no-op that never reads the clock.
type stageTimer struct {
	tr   *obs.Trace
	base time.Time
	last time.Duration
}

func newStageTimer(tr *obs.Trace) stageTimer {
	if tr == nil {
		return stageTimer{}
	}
	return stageTimer{tr: tr, base: time.Now()}
}

// mark charges the time since the previous mark to stage st.
func (t *stageTimer) mark(st obs.Stage) {
	if t.tr == nil {
		return
	}
	el := time.Since(t.base)
	t.tr.Add(st, el-t.last)
	t.last = el
}

// skip advances the mark without charging a stage — for spans timed
// elsewhere (the scenario workers charge estimate and bounds).
func (t *stageTimer) skip() {
	if t.tr == nil {
		return
	}
	t.last = time.Since(t.base)
}

// workerTimer accumulates one scenario worker's estimate and bounds
// time locally against the request's base timestamp, flushing to the
// shared trace once when the worker's share of the batch is done —
// per-scenario atomic adds would contend across the pool. A workerTimer
// with a nil trace never reads the clock.
type workerTimer struct {
	tr       *obs.Trace
	base     time.Time
	est, bnd time.Duration
}

// start returns the worker's clock reading before an estimate.
func (w *workerTimer) start() time.Duration {
	if w.tr == nil {
		return 0
	}
	return time.Since(w.base)
}

// estimateDone charges the time since e0 to the estimate stage and
// returns the new reading, the bounds stage's start.
func (w *workerTimer) estimateDone(e0 time.Duration) time.Duration {
	if w.tr == nil {
		return 0
	}
	e1 := time.Since(w.base)
	w.est += e1 - e0
	return e1
}

// boundsDone charges the time since e1 to the bounds stage.
func (w *workerTimer) boundsDone(e1 time.Duration) {
	if w.tr == nil {
		return
	}
	w.bnd += time.Since(w.base) - e1
}

// flush adds the worker's accumulated stage time to the trace.
func (w *workerTimer) flush() {
	if w.tr == nil {
		return
	}
	w.tr.Add(obs.StageEstimate, w.est)
	w.tr.Add(obs.StageBounds, w.bnd)
}

// setProvenance stamps the X-Estimate-* headers identifying the
// expression set that answered (or would have answered) the request.
func setProvenance(w http.ResponseWriter, e *estimate.Entry) {
	h := w.Header()
	h.Set("X-Estimate-Registry", e.Name)
	h.Set("X-Estimate-Backend", e.Backend.Name())
	h.Set("X-Estimate-Provenance", e.Backend.Provenance())
}

// serveEstimate does the work of POST /v1/estimate and reports the
// request's outcome for instrumentation. tr may be nil.
func (s *Server) serveEstimate(w http.ResponseWriter, r *http.Request, tr *obs.Trace) reqStats {
	st := reqStats{status: http.StatusOK, codec: CodecUnknown}
	// Until the request names a registry, errors are attributed to the
	// default entry — the one that would have answered — so 4xx/5xx
	// responses carry the same provenance headers as successes. An
	// unknown-registry error clears the entry instead: there is no
	// provenance to claim for a name that resolves to nothing.
	entry, _ := s.registry().Get(s.Default)
	fail := func(status int, err error) reqStats {
		if entry != nil {
			setProvenance(w, entry)
		}
		writeError(w, status, err)
		st.status = status
		return st
	}
	codec, err := s.negotiate(r)
	if err != nil {
		w.Header().Set("Accept-Post", AcceptPost)
		return fail(http.StatusUnsupportedMediaType, err)
	}
	st.codec = codec
	ctx := r.Context()
	if d, has, derr := requestDeadline(r, s.Timeout); derr != nil {
		return fail(http.StatusBadRequest, derr)
	} else if has {
		st.hadDeadline = true
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	tm := newStageTimer(tr)
	bodyBuf := getBuffer()
	defer putBuffer(bodyBuf)
	if _, err := bodyBuf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return fail(status, fmt.Errorf("reading request body: %w", err))
	}
	body := bodyBuf.Bytes()
	scr := getScratch()
	defer putScratch(scr)

	// Decode: the codecs differ only here and at encode. JSON and
	// NDJSON produce named scenarios for the resolve loop; the binary
	// frame is resolved through its string table below.
	var regName string
	var scns []Scenario
	switch codec {
	case CodecNDJSON:
		scns, err = ParseNDJSON(body)
	case CodecBinary:
		if err = scr.wreq.Decode(body); err == nil {
			regName = scr.wreq.Registry
		}
	default:
		regName, scns, err = ParseJSONRequest(body)
	}
	tm.mark(obs.StageDecode)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	if regName == "" {
		regName = r.URL.Query().Get("registry")
	}
	if regName == "" {
		regName = s.Default
	}
	if entry, err = s.registry().Get(regName); err != nil {
		return fail(http.StatusBadRequest, err)
	}
	st.registry = entry.Name
	n := len(scns)
	if codec == CodecBinary {
		n = len(scr.wreq.Records)
	}
	if n == 0 {
		return fail(http.StatusBadRequest, errors.New("the request carries no scenarios"))
	}
	if n > s.maxBatch() {
		return fail(http.StatusBadRequest,
			fmt.Errorf("%d scenarios exceed the batch cap of %d", n, s.maxBatch()))
	}
	res := scr.resolvedSlice(n)
	if codec == CodecBinary {
		if err := s.resolveWire(&scr.wreq, scr, res); err != nil {
			return fail(http.StatusBadRequest, err)
		}
	} else {
		for i, sc := range scns {
			if res[i], err = s.resolve(sc); err != nil {
				return fail(http.StatusBadRequest, fmt.Errorf("scenario %d (%s/%s): %w", i, sc.Machine, sc.Op, err))
			}
		}
	}
	for i := range res {
		res[i].fallbackReason, res[i].fbKind = fallbackReason(entry, res[i])
		res[i].fallback = res[i].fbKind != fbNone
	}
	tm.mark(obs.StageResolve)

	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Bulk-calibrate the in-envelope triples of a calibrated entry
	// before fanning out, so a cold batch parallelizes its calibration
	// across triples instead of behind first-touch scenario workers.
	if cal, ok := entry.Backend.(*estimate.Calibrated); ok {
		var triples []estimate.Triple
		for _, rs := range res {
			if !rs.fallback {
				triples = append(triples, estimate.Triple{Machine: rs.mach, Op: rs.op, Alg: rs.alg})
			}
		}
		cal.Precalibrate(triples, workers)
	}
	tm.mark(obs.StageCalibrate)

	answers := scr.answerSlice(len(res))
	cres := scr.cacheSlice(len(res))
	errs := scr.errSlice(len(res))
	if len(res) == 1 {
		// The common single-scenario request skips the pool and its
		// worker closures entirely.
		wt := workerTimer{tr: tr, base: tm.base}
		answers[0], cres[0], errs[0] = s.answerSafe(ctx, entry, res[0], &wt)
		wt.flush()
	} else {
		fanOut(workers, len(res), func() (func(int), func()) {
			wt := &workerTimer{tr: tr, base: tm.base}
			return func(i int) { answers[i], cres[i], errs[i] = s.answerSafe(ctx, entry, res[i], wt) }, wt.flush
		})
	}
	tm.skip()

	st.scenarios = len(res)
	var scErr error
	for i := range res {
		if errs[i] != nil && scErr == nil {
			scErr = fmt.Errorf("scenario %d (%s/%s p=%d m=%d): %w",
				i, res[i].mach.Name(), res[i].op, res[i].p, res[i].m, errs[i])
		}
		if res[i].fallback {
			st.fallbacks++
			st.kinds[res[i].fbKind]++
		}
		if answers[i].FallbackReason == reasonDegraded {
			st.degraded++
		}
		if answers[i].ExpectedError != nil {
			st.bounds++
		}
		switch cres[i] {
		case cacheHit:
			st.cacheHits++
		case cacheMiss:
			st.cacheMisses++
		case cacheBypass:
			st.cacheBypass++
		}
	}
	if scErr != nil {
		// A deadline that expired where no closed-form degraded answer
		// exists is a timeout the client must know about; anything else
		// (an injected fault, a recovered backend panic) is a 500.
		if errors.Is(scErr, context.DeadlineExceeded) || errors.Is(scErr, context.Canceled) {
			return fail(http.StatusGatewayTimeout, fmt.Errorf("deadline exceeded with no degraded answer available: %w", scErr))
		}
		return fail(http.StatusInternalServerError, scErr)
	}

	setProvenance(w, entry)
	w.Header().Set("X-Estimate-Cache", CacheVerdict(st.cacheHits, st.cacheMisses))
	switch codec {
	case CodecNDJSON:
		WriteNDJSONAnswers(w, answers)
	case CodecBinary:
		writeWire(w, scr, entry.Name, entry.Backend.Name(), entry.Backend.Provenance(), answers)
	default:
		resp := Response{
			Registry:   entry.Name,
			Backend:    entry.Backend.Name(),
			Provenance: entry.Backend.Provenance(),
			Answers:    answers,
		}
		WriteJSON(w, http.StatusOK, resp)
	}
	tm.mark(obs.StageEncode)
	return st
}

// CacheVerdict summarizes a request's answer-cache lookups for the
// X-Estimate-Cache header: "miss" when any lookup missed, "hit" when
// every lookup hit, and "bypass" when the request made none — no cache
// attached, or no scenario needed the simulator. The sharding front
// folds its workers' verdicts through it too, so a fronted batch
// reports what one worker answering the whole batch would.
func CacheVerdict(hits, misses int) string {
	switch {
	case misses > 0:
		return "miss"
	case hits > 0:
		return "hit"
	default:
		return "bypass"
	}
}

// Answer-cache verdicts per scenario, accumulated into reqStats and
// the serve_answer_cache_total{result} series. Closed-form scenarios
// make no lookup and count nowhere.
const (
	cacheNone uint8 = iota
	cacheBypass
	cacheHit
	cacheMiss
)

// simIdentity names this server's fallback simulation for answer-cache
// keys: the simulator's name and provenance (a chaos-wrapped simulator
// never shares results with a clean one) plus the methodology, so two
// servers over one AnswerCache share only what they would both compute.
func (s *Server) simIdentity() string {
	s.simOnce.Do(func() {
		blob, err := json.Marshal(s.config())
		if err != nil {
			panic(fmt.Sprintf("serve: config digest: %v", err))
		}
		sim := s.simBackend()
		s.simID = string(blob) + "\x00" + sim.Name() + "\x00" + sim.Provenance()
	})
	return s.simID
}

// simulate runs one fallback scenario on the exact simulator through
// the answer cache: a finished result is returned as-is, a cold key
// simulates once (single flight — concurrent requests for the same
// cold key wait and share), and with no cache attached every scenario
// simulates. Errored flights are forgotten: their waiters share the
// error, but the next request retries instead of being served a
// poisoned slot forever.
func (s *Server) simulate(ctx context.Context, rs resolved) (simResult, uint8, error) {
	if s.Cache == nil {
		r, err := s.runSim(ctx, rs)
		return r, cacheBypass, err
	}
	k := acKey{
		sim: s.simIdentity(), fp: estimate.CachedFingerprint(rs.mach),
		op: rs.op, alg: rs.alg, p: rs.p, m: rs.m,
	}
	e, created := s.Cache.get(k)
	if !created && e.done.Load() {
		return e.res, cacheHit, e.err
	}
	// Whoever wins the once simulates; everyone blocks until the result
	// exists. The creator is the accounting miss either way.
	e.once.Do(func() {
		e.res, e.err = s.runSim(ctx, rs)
		e.done.Store(true)
		if e.err != nil {
			s.Cache.forget(k, e)
		}
	})
	if created {
		return e.res, cacheMiss, e.err
	}
	return e.res, cacheHit, e.err
}

// runSim is one fallback simulation with a backend panic converted to
// an error. The recover must sit inside the cache's single flight: a
// panic escaping once.Do would consume the once and hand every waiter
// an empty result.
func (s *Server) runSim(ctx context.Context, rs resolved) (r simResult, err error) {
	defer recoverBackend(&err)
	est, err := s.simBackend().Estimate(ctx, rs.mach, rs.op, rs.algs, rs.p, rs.m, s.config())
	return simResult{micros: est.Sample.Micros, backend: est.Backend}, err
}

// recoverBackend, deferred, turns a backend panic into the frame's
// error result. Worker goroutines are outside net/http's recovery, so
// an unrecovered panic (an injected chaos fault, a modeling bug) would
// kill the process; here it becomes a per-scenario error and a 500.
func recoverBackend(err *error) {
	if rec := recover(); rec != nil {
		*err = fmt.Errorf("backend panicked: %v", rec)
	}
}

// ParseJSONRequest accepts the three request shapes: a bare
// scenario object, a bare scenario array, or an envelope
// {registry, scenarios}. The registry name is empty unless the envelope
// carried one.
func ParseJSONRequest(body []byte) (registry string, scns []Scenario, err error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := json.Unmarshal(body, &scns); err != nil {
			return "", nil, fmt.Errorf("decoding scenario array: %w", err)
		}
		return "", scns, nil
	}
	var req struct {
		Registry  string     `json:"registry"`
		Scenarios []Scenario `json:"scenarios"`
		Scenario             // single-scenario shorthand
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "", nil, fmt.Errorf("decoding request: %w", err)
	}
	scns = req.Scenarios
	if len(scns) == 0 && req.Scenario != (Scenario{}) {
		scns = []Scenario{req.Scenario}
	}
	return req.Registry, scns, nil
}

// resolve validates one scenario and binds its names.
func (s *Server) resolve(sc Scenario) (resolved, error) {
	rs, err := s.resolveTriple(sc.Machine, sc.Op, sc.Algorithm)
	if err != nil {
		return resolved{}, err
	}
	if err := s.checkPM(&rs, sc.P, sc.M); err != nil {
		return resolved{}, err
	}
	return rs, nil
}

// resolveTriple binds the name part of a scenario — machine, operation,
// algorithm, and the algorithm table the estimate runs under —
// memoized across requests (the triple space is small and fixed; see
// Server.triples). The returned base shares its machine and algorithm
// table between scenarios, which is safe: both are read-only after
// construction.
func (s *Server) resolveTriple(machName, opName, algName string) (resolved, error) {
	k := tripleKey{machName, opName, algName}
	s.triplesMu.RLock()
	rs, ok := s.triples[k]
	s.triplesMu.RUnlock()
	if ok {
		return rs, nil
	}
	mach, err := estimate.ResolveMachine(machName)
	if err != nil {
		return resolved{}, err
	}
	op, err := estimate.ResolveOp(opName)
	if err != nil {
		return resolved{}, err
	}
	alg, err := estimate.ResolveAlgorithm(mach, op, algName)
	if err != nil {
		return resolved{}, err
	}
	algs := mpi.DefaultAlgorithms(mach)
	if alg != sweepDefaultAlg {
		algs = algs.With(op, alg)
	}
	rs = resolved{mach: mach, op: op, alg: alg, algs: algs}
	s.triplesMu.Lock()
	if s.triples == nil {
		s.triples = make(map[tripleKey]resolved)
	}
	s.triples[k] = rs
	s.triplesMu.Unlock()
	return rs, nil
}

// checkPM validates and installs one scenario's (p, m) coordinates on a
// name-resolved base.
func (s *Server) checkPM(rs *resolved, p, m int) error {
	if p < 2 {
		return fmt.Errorf("p=%d: a collective needs at least 2 nodes", p)
	}
	if p > rs.mach.MaxNodes() {
		return fmt.Errorf("p=%d exceeds the %s's %d nodes", p, rs.mach.Name(), rs.mach.MaxNodes())
	}
	if rs.op == machine.OpBarrier {
		m = 0
	}
	if m < 0 {
		return fmt.Errorf("negative message length m=%d", m)
	}
	if m > s.maxMessage() {
		return fmt.Errorf("m=%d exceeds the service cap of %d bytes", m, s.maxMessage())
	}
	rs.p, rs.m = p, m
	return nil
}

// sweepDefaultAlg mirrors sweep.DefaultAlgorithm without importing the
// sweep engine into the serving layer.
const sweepDefaultAlg = "default"

// reasonDegraded marks an answer served closed-form because the
// request's deadline expired before the exact simulator could finish.
// Degraded answers carry no bounds and never reach the answer cache,
// which holds only completed simulations.
const reasonDegraded = "degraded_deadline"

// answerSafe is answer with backend panics converted to errors (see
// recoverBackend).
func (s *Server) answerSafe(ctx context.Context, entry *estimate.Entry, rs resolved, wt *workerTimer) (a Answer, cache uint8, err error) {
	defer recoverBackend(&err)
	return s.answer(ctx, entry, rs, wt)
}

// answer serves one resolved scenario from the entry — or, flagged,
// from the exact simulator through the answer cache when the fallback
// decision computed at resolve time says the entry cannot answer it
// honestly. A simulation cut short by a deadline — this request's, or
// the one a shared cache flight ran under — degrades to the paper's
// closed-form expressions when they cover the scenario (an instant
// answer flagged "degraded_deadline", no bounds) and errors otherwise.
// Estimate and bound-attach time is charged to the worker's timer; the
// second result is the scenario's answer-cache verdict.
func (s *Server) answer(ctx context.Context, entry *estimate.Entry, rs resolved, wt *workerTimer) (Answer, uint8, error) {
	echo := Scenario{Machine: rs.mach.Name(), Op: string(rs.op), Algorithm: rs.alg, P: rs.p, M: rs.m}
	e0 := wt.start()
	var r simResult
	cache := cacheNone
	var err error
	if rs.fallback {
		r, cache, err = s.simulate(ctx, rs)
	} else {
		var est estimate.Estimate
		est, err = entry.Backend.Estimate(ctx, rs.mach, rs.op, rs.algs, rs.p, rs.m, s.config())
		r = simResult{micros: est.Sample.Micros, backend: est.Backend}
	}
	e1 := wt.estimateDone(e0)
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
			if a, ok := s.degradedAnswer(echo, rs); ok {
				return a, cache, nil
			}
		}
		if ctx.Err() != nil {
			// Make sure the timeout wins the errors.Is dispatch even if
			// the backend returned a bare injected error after ctx fired.
			return Answer{}, cache, fmt.Errorf("%w (%v)", ctx.Err(), err)
		}
		return Answer{}, cache, err
	}
	a := Answer{Scenario: echo, Micros: r.micros, Backend: r.backend}
	if rs.fallback {
		a.Fallback, a.FallbackReason = true, rs.fallbackReason
		return a, cache, nil
	}
	attachBound(entry, rs, &a)
	wt.boundsDone(e1)
	return a, cache, nil
}

// degradedAnswer answers a deadline-pressed scenario from the paper's
// published expressions — instant, honest about what it is (fallback
// with reason "degraded_deadline"), and carrying no bounds: the
// expression set was not validated for this scenario, that is why the
// simulator was asked in the first place. ok is false when the paper's
// set has no expression for the (machine, op) pair; the caller then
// surfaces the timeout.
func (s *Server) degradedAnswer(echo Scenario, rs resolved) (Answer, bool) {
	da := s.degradedBackend()
	if !da.Covers(rs.mach.Name(), rs.op) {
		return Answer{}, false
	}
	est, err := da.Estimate(context.Background(), rs.mach, rs.op, rs.algs, rs.p, rs.m, s.config())
	if err != nil {
		return Answer{}, false // Analytic never errors; belt and braces
	}
	return Answer{
		Scenario: echo, Micros: est.Sample.Micros, Backend: est.Backend,
		Fallback: true, FallbackReason: reasonDegraded,
	}, true
}

// attachBound annotates a closed-form answer with its validated
// expected-error bound, when the entry carries one.
func attachBound(entry *estimate.Entry, rs resolved, a *Answer) {
	// Piecewise fits answer from one protocol segment; the expected
	// error must come from validated lengths of that same segment, and
	// the answer says which segment served it. Affine entries skip the
	// per-answer expression lookup entirely — it is hot-path work that
	// could only rediscover there are no segments.
	if cal, isCal := entry.Backend.(*estimate.Calibrated); isCal && cal.Fit.Piecewise {
		if seg, isSeg := cal.Expression(rs.mach, rs.op, rs.alg).SegmentFor(rs.m); isSeg {
			if cell, ok := entry.Bounds.BoundIn(rs.mach.Name(), rs.op, rs.m, seg.MMin, seg.MMax); ok {
				a.ExpectedError = &Bound{
					RelMedian: cell.Median, RelMax: cell.Max,
					BasisM: cell.M, Points: cell.Points,
				}
				// BoundIn falls back to a cross-regime neighbor when the
				// validation grid has no cell inside the segment; only an
				// in-segment basis may claim the segment-scoped contract.
				if cell.M >= seg.MMin && cell.M <= seg.MMax {
					a.ExpectedError.SegmentMMin, a.ExpectedError.SegmentMMax = seg.MMin, seg.MMax
				}
			}
			return
		}
	}
	if cell, ok := entry.Bounds.Bound(rs.mach.Name(), rs.op, rs.m); ok {
		a.ExpectedError = &Bound{
			RelMedian: cell.Median, RelMax: cell.Max,
			BasisM: cell.M, Points: cell.Points,
		}
	}
}

// fallbackReason decides whether the scenario must be answered by the
// simulator: outside the entry's calibrated envelope, a pair the
// envelope function disowns, or — whatever the envelope says — a fixed
// expression set that cannot answer the pair honestly, either because
// it has no fit at all (evaluating one would panic deep inside the
// model) or because it only models vendor-default algorithms and the
// request names another variant. The kind is fbNone when the entry
// answers in closed form.
func fallbackReason(entry *estimate.Entry, rs resolved) (string, fallbackKind) {
	if a, ok := entry.Backend.(*estimate.Analytic); ok {
		if !a.Covers(rs.mach.Name(), rs.op) {
			return uncoveredReason(entry, rs), fbUncovered
		}
		// Fixed sets model the vendor-default algorithms only; naming
		// the default variant explicitly is fine, any other variant is
		// a question the set cannot answer.
		if rs.alg != sweepDefaultAlg && rs.alg != mpi.DefaultAlgorithms(rs.mach).Get(rs.op) {
			return fmt.Sprintf("the %s expression set models vendor-default algorithms only, not %s[%s]; answered by the exact simulator",
				entry.Name, rs.op, rs.alg), fbVariant
		}
	}
	in, rng := entry.Covers(rs.mach, rs.op, rs.p, rs.m)
	if in {
		return "", fbNone
	}
	if rng == (estimate.Range{}) {
		return uncoveredReason(entry, rs), fbUncovered
	}
	return fmt.Sprintf("p=%d m=%d is outside the calibrated range %s; answered by the exact simulator",
		rs.p, rs.m, rng), fbOutOfRange
}

func uncoveredReason(entry *estimate.Entry, rs resolved) string {
	return fmt.Sprintf("%s/%s has no %s expression; answered by the exact simulator",
		rs.mach.Name(), rs.op, entry.Name)
}

// handleRegistry answers GET /v1/registry.
func (s *Server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	entries := s.registry().Entries()
	resp := RegistryResponse{Default: s.Default, Registries: make([]RegistryInfo, 0, len(entries))}
	for _, e := range entries {
		info := RegistryInfo{
			Name:        e.Name,
			Description: e.Description,
			Backend:     e.Backend.Name(),
			Provenance:  e.Backend.Provenance(),
		}
		if e.Bounds != nil {
			info.BoundsCells = len(e.Bounds.Cells)
		}
		resp.Registries = append(resp.Registries, info)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// fanOut runs indices 0..n-1 across a bounded worker pool — the
// calibration-pool pattern (jobs channel, WaitGroup), sized like
// Precalibrate. setup runs once per worker and returns the worker's
// per-index fn plus a done hook that runs after its share of the batch
// (worker-local state, e.g. timing accumulators, flushes there).
func fanOut(workers, n int, setup func() (fn func(i int), done func())) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn, done := setup()
		for i := 0; i < n; i++ {
			fn(i)
		}
		done()
		return
	}
	jobs := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn, done := setup()
			for i := range jobs {
				fn(i)
			}
			done()
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// WriteJSON encodes v with the fixed two-space indentation the goldens
// pin down, through a pooled buffer (Encoder with SetIndent produces
// byte-identical output to MarshalIndent plus the trailing newline).
// The sharding front writes its merged answers and its own documents
// through it too, so a response assembled from N workers is
// byte-identical to one a single worker would have written.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuffer()
	defer putBuffer(buf)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// writeError emits the JSON error envelope every non-2xx response uses.
func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// WriteJSONError emits the service's JSON error envelope — shared with
// the front so shed and failover errors look like worker errors.
func WriteJSONError(w http.ResponseWriter, status int, err error) {
	writeError(w, status, err)
}

// SetProvenanceHeaders stamps the X-Estimate-* headers from an already
// known envelope — the front's variant of setProvenance, which works
// from a worker response instead of a registry entry.
func SetProvenanceHeaders(w http.ResponseWriter, registry, backend, provenance string) {
	h := w.Header()
	h.Set("X-Estimate-Registry", registry)
	h.Set("X-Estimate-Backend", backend)
	h.Set("X-Estimate-Provenance", provenance)
}
