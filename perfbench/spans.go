package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/serve"
)

// span is one timed call across a layer boundary. Spans of one request
// share its trace ID; Parent is the span that caused this one (0 for a
// root).
type span struct {
	Trace  string `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// parentHeader carries the calling span's ID across an HTTP hop inside
// the benchmark's in-process stack.
const parentHeader = "X-Bench-Parent-Span"

// tracer records spans in memory while on. Off, every hook is one
// atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef identifies an open span to the calls it causes.
type spanRef struct {
	trace string
	id    uint64
}

type spanKey struct{}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// begin opens a span, or returns nil when tracing is off.
func (t *tracer) begin(parent spanRef, name string) *span {
	if !t.on.Load() {
		return nil
	}
	return &span{Trace: parent.trace, ID: t.ids.Add(1), Parent: parent.id, Name: name,
		Start: int64(time.Since(t.epoch))}
}

// end closes and keeps s; nil is a no-op.
func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

func (s *span) ref() spanRef { return spanRef{trace: s.Trace, id: s.ID} }

// handler wraps next in a span named name, parented by the caller's
// span header and tagged with the request's trace ID.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		s := t.begin(spanRef{trace: r.Header.Get(serve.TraceIDHeader), id: parent}, name)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.ref())))
		t.end(s)
	})
}

// roundTripper times each front→worker sub-request as front.subrequest,
// from send until its body is closed, and passes its span to the worker.
type roundTripper struct {
	t     *tracer
	inner http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	s := rt.t.begin(spanFrom(req.Context()), "front.subrequest")
	if s == nil {
		return rt.inner.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(parentHeader, strconv.FormatUint(s.ID, 10))
	resp, err := rt.inner.RoundTrip(req)
	if err != nil {
		rt.t.end(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    *span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.t.end(b.s) })
	return err
}

// tracedSim is the worker's fallback simulator with an estimate.sim
// span around each call. Name and Provenance pass through unchanged,
// so answer-cache epochs are the same as the bare simulator's.
type tracedSim struct {
	t     *tracer
	inner estimate.Backend
}

func (s tracedSim) Name() string       { return s.inner.Name() }
func (s tracedSim) Provenance() string { return s.inner.Provenance() }

func (s tracedSim) Estimate(ctx context.Context, mach *machine.Machine, op machine.Op, algs mpi.Algorithms, p, m int, cfg measure.Config) (estimate.Estimate, error) {
	sp := s.t.begin(spanFrom(ctx), "estimate.sim")
	defer s.t.end(sp)
	return s.inner.Estimate(ctx, mach, op, algs, p, m, cfg)
}

// taken returns a copy of the recorded spans.
func (t *tracer) taken() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once; the parts of a child outside its parent do not count).
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStats is one span name's aggregate.
type spanStats struct {
	n             int
	durMS, selfMS float64 // medians
}

// bySpanName aggregates spans per name: count, median duration, and
// median self time.
func bySpanName(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e6)
	}
	out := map[string]spanStats{}
	for name, d := range durs {
		out[name] = spanStats{n: len(d), durMS: median(d), selfMS: median(selfs[name])}
	}
	return out
}

func (s spanStats) String() string {
	return fmt.Sprintf("%6d spans, median %.3f ms, self %.3f ms", s.n, s.durMS, s.selfMS)
}
