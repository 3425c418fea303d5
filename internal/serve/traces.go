package serve

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TraceIDHeader carries a request's trace identity. An inbound value is
// honored (so a client or front can correlate its own retries and
// cross-process hops); otherwise the server mints one. Every response —
// including 4xx/5xx and requests shed before the worker pool — echoes
// it back.
const TraceIDHeader = "X-Trace-Id"

// maxTraceIDLen bounds an inbound trace ID; longer (or non-printable)
// values are replaced with a generated one rather than stored or
// echoed verbatim.
const maxTraceIDLen = 128

// traceIDKey carries the request's trace ID through its context.
type traceIDKey struct{}

// TraceIDFrom returns the trace ID the middleware assigned to this
// request's context ("" outside a request).
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// validTraceID accepts printable ASCII without spaces, quotes, or
// backslashes, capped at maxTraceIDLen — safe to echo in a header, a
// JSON log line, a trace record, and a forwarded sub-request without
// escaping surprises.
func validTraceID(id string) bool {
	if id == "" || len(id) > maxTraceIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// TraceIDs assigns every request of one process its trace ID. A worker
// Server and the fleet front each hold one, so both apply the same
// echo-or-mint rule. The zero value is ready to use.
type TraceIDs struct {
	once sync.Once
	seed uint64
	n    atomic.Uint64
}

// mint returns a process-unique id from a seeded counter — one atomic
// add, no crypto/rand on the hot path. The seed is the first mint's
// time mixed through a 64-bit multiplier, so two processes started
// apart never collide in practice and ids stay meaningless outside
// correlation.
func (t *TraceIDs) mint() string {
	t.once.Do(func() {
		t.seed = uint64(time.Now().UnixNano()) * 0x9E3779B97F4A7C15
		if t.seed == 0 {
			t.seed = 1
		}
	})
	// The seed in hex, a dash, then the counter: short, sortable per
	// process, and grep-able across logs and /debug/traces.
	buf := make([]byte, 0, 28)
	buf = strconv.AppendUint(buf, t.seed, 16)
	buf = append(buf, '-')
	buf = strconv.AppendUint(buf, t.n.Add(1), 16)
	return string(buf)
}

// Middleware is the outermost middleware: resolve the request's trace
// ID (a valid inbound header, else a minted one), echo it on the
// response, and stash it in the context, where TraceIDFrom reads it for
// logging, trace capture, and forwarding. It wraps the panic
// middleware, so even a 500 from a recovered panic carries the ID.
func (t *TraceIDs) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(TraceIDHeader)
		if !validTraceID(id) {
			id = t.mint()
		}
		w.Header().Set(TraceIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceIDKey{}, id)))
	})
}

// traceOutcome labels a finished request for its trace record and the
// sampling policy's always-capture set.
func traceOutcome(st reqStats) string {
	switch {
	case st.status == http.StatusOK && st.degraded > 0:
		return "degraded"
	case st.status == http.StatusOK:
		return "ok"
	case st.status == http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case st.status < 500:
		return "client_error"
	default:
		return "server_error"
	}
}

// sampleTrace decides whether one finished request is captured:
// every TraceSample-th request (0 disables periodic sampling), plus
// always-on for errors, degraded answers, deadline-exceeded, and
// requests at least TraceSlow slow. Runs after the response is written,
// so sampling never adds latency the client can see.
func (s *Server) sampleTrace(outcome string, dur time.Duration) bool {
	if outcome != "ok" {
		return true // client/server errors, degraded, deadline_exceeded
	}
	if s.TraceSlow > 0 && dur >= s.TraceSlow {
		return true
	}
	if s.TraceSample > 0 {
		return s.traceCount.Add(1)%uint64(s.TraceSample) == 0
	}
	return false
}

// captureTrace freezes one finished request into the trace ring.
func (s *Server) captureTrace(id string, st reqStats, tr *obs.Trace) {
	dur := tr.Duration()
	outcome := tr.Outcome
	if !s.sampleTrace(outcome, dur) {
		return
	}
	rec := obs.TraceRecord{
		TraceID:       id,
		StartUnixNano: tr.Start.UnixNano(),
		DurationNS:    dur.Nanoseconds(),
		Status:        st.status,
		Outcome:       outcome,
		Registry:      st.registry,
		Scenarios:     st.scenarios,
		Fallbacks:     st.fallbacks,
		Degraded:      st.degraded,
		Bounds:        st.bounds,
		CacheHits:     st.cacheHits,
		CacheMisses:   st.cacheMisses,
	}
	rec.StagesFrom(tr)
	s.Traces.Push(rec)
}

// handleTraces answers GET /debug/traces: the sampled trace ring as
// line-JSON, oldest first — one TraceRecord per line with trace ID,
// outcome, per-stage nanoseconds, and cache/fallback accounting.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ctNDJSON)
	s.Traces.WriteLineJSON(w)
}
