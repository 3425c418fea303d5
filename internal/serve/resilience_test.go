package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
)

// postH is post with extra request headers and an optional context —
// the resilience suite's door into deadlines and queued cancellation.
func postH(t *testing.T, s *Server, body string, hdr map[string]string, ctx context.Context) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// slowSim wraps the test fixture's fallback simulator in a fault
// injector that always sleeps far longer than any test deadline — the
// deterministic stand-in for a hostile fallback simulation.
func slowSim(s *Server) {
	s.Sim = &estimate.FaultBackend{Inner: s.Sim, Seed: 1, LatencyProb: 1, Latency: time.Minute}
}

// outOfRange is a scenario outside testServer's calibrated envelope
// (m ≤ 1024), forcing the sim fallback path.
const outOfRange = `{"machine":"T3D","op":"broadcast","p":8,"m":65536}`

// TestDegradedDeadlineAnswer: a deadline that expires mid-fallback
// still answers 200 — from the paper's closed forms, flagged
// degraded_deadline, no bounds — within deadline + 100ms, and the
// degraded metrics count it exactly.
func TestDegradedDeadlineAnswer(t *testing.T) {
	s := testServer(t)
	slowSim(s)
	instrument(s)
	const deadline = 250 * time.Millisecond
	start := time.Now()
	rec := postH(t, s, outOfRange, map[string]string{deadlineHeader: "250"}, nil)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if elapsed > deadline+100*time.Millisecond {
		t.Fatalf("degraded answer took %s, want ≤ deadline+100ms = %s", elapsed, deadline+100*time.Millisecond)
	}
	a := decode(t, rec).Answers[0]
	if !a.Fallback || a.FallbackReason != reasonDegraded {
		t.Fatalf("answer %+v, want fallback with reason %q", a, reasonDegraded)
	}
	if a.Backend != estimate.BackendAnalytic {
		t.Fatalf("degraded backend %q, want %q", a.Backend, estimate.BackendAnalytic)
	}
	if a.ExpectedError != nil {
		t.Fatalf("degraded answer must carry no bounds: %+v", a.ExpectedError)
	}
	if a.Micros <= 0 {
		t.Fatalf("degraded micros = %v", a.Micros)
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	for series, want := range map[string]uint64{
		`serve_deadline_total{outcome="degraded"}`: 1,
		`serve_deadline_total{outcome="met"}`:      0,
		`serve_deadline_total{outcome="exceeded"}`: 0,
		`serve_degraded_total`:                     1,
	} {
		if got := vals[series]; got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
}

// TestDegradedAnswerNeverCached: a deadline that cuts the fallback
// simulation short leaves nothing in the answer cache — the errored
// flight is forgotten — so once the pressure is off the same scenario
// gets the real simulated answer, not the degraded stopgap.
func TestDegradedAnswerNeverCached(t *testing.T) {
	s := testServer(t)
	fault := &estimate.FaultBackend{Inner: s.Sim, Seed: 1, LatencyProb: 1, Latency: time.Minute}
	s.Sim = fault
	s.Cache = NewAnswerCache(64)
	rec := postH(t, s, outOfRange, map[string]string{deadlineHeader: "100"}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded request: status %d: %s", rec.Code, rec.Body.String())
	}
	if a := decode(t, rec).Answers[0]; a.FallbackReason != reasonDegraded {
		t.Fatalf("first answer %+v, want degraded", a)
	}
	if got := rec.Header().Get("X-Estimate-Cache"); got != "miss" {
		t.Fatalf("degraded request X-Estimate-Cache %q, want miss", got)
	}
	if n := s.Cache.Len(); n != 0 {
		t.Fatalf("Cache.Len() = %d after a cut-short simulation, want 0", n)
	}
	// Pressure off: same server, healthy simulator, no deadline. (The
	// key carries the configured Sim's provenance, so the swap must keep
	// the same backend identity — turning the injected latency off does.)
	fault.LatencyProb = 0
	for _, want := range []string{"miss", "hit"} {
		rec = post(t, s, outOfRange, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("healthy request: status %d: %s", rec.Code, rec.Body.String())
		}
		if a := decode(t, rec).Answers[0]; a.FallbackReason == reasonDegraded || a.Backend != estimate.BackendSim {
			t.Fatalf("healthy answer %+v, want a real sim answer", a)
		}
		if got := rec.Header().Get("X-Estimate-Cache"); got != want {
			t.Fatalf("healthy request X-Estimate-Cache %q, want %s", got, want)
		}
	}
}

// TestDegradedSharedFlight: a request that joins another request's
// fallback simulation shares its outcome. When the flight's deadline
// cuts the simulation short, the joiner — whose own deadline is far
// off — is answered degraded as well, at once, instead of with an
// error or a second full-length simulation.
func TestDegradedSharedFlight(t *testing.T) {
	s := testServer(t)
	slowSim(s)
	s.Cache = NewAnswerCache(64)
	first := make(chan *httptest.ResponseRecorder)
	go func() { first <- postH(t, s, outOfRange, map[string]string{deadlineHeader: "300"}, nil) }()
	for s.Cache.Len() == 0 { // the first request's flight is open
		runtime.Gosched()
	}
	start := time.Now()
	joined := postH(t, s, outOfRange, map[string]string{deadlineHeader: "10000"}, nil)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("joining request took %s: it ran its own simulation instead of sharing the flight", elapsed)
	}
	for name, rec := range map[string]*httptest.ResponseRecorder{"first": <-first, "joined": joined} {
		if rec.Code != http.StatusOK {
			t.Fatalf("%s request: status %d: %s", name, rec.Code, rec.Body.String())
		}
		if a := decode(t, rec).Answers[0]; a.FallbackReason != reasonDegraded {
			t.Fatalf("%s request: answer %+v, want degraded", name, a)
		}
	}
}

// TestDeadlineExceededWithoutCoverage: when the paper's expressions
// cannot answer the deadline-pressed scenario (SP2 allgather was never
// fitted), the request is an honest 504 — counted as exceeded.
func TestDeadlineExceededWithoutCoverage(t *testing.T) {
	s := testServer(t)
	slowSim(s)
	instrument(s)
	rec := postH(t, s, `{"registry":"paper","scenarios":[{"machine":"SP2","op":"allgather","p":8,"m":64}]}`,
		map[string]string{deadlineHeader: "100"}, nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	if got := vals[`serve_deadline_total{outcome="exceeded"}`]; got != 1 {
		t.Errorf(`exceeded total = %d, want 1`, got)
	}
	if got := vals[`serve_degraded_total`]; got != 0 {
		t.Errorf(`degraded total = %d, want 0`, got)
	}
}

// TestDeadlineMetCounting: requests that finish inside their deadline
// (configured server-wide or per header) count as met — exactly.
func TestDeadlineMetCounting(t *testing.T) {
	s := testServer(t)
	s.Timeout = 30 * time.Second
	instrument(s)
	for i := 0; i < 3; i++ {
		if rec := post(t, s, `{"machine":"T3D","op":"broadcast","p":8,"m":16}`, ""); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	for series, want := range map[string]uint64{
		`serve_deadline_total{outcome="met"}`:      3,
		`serve_deadline_total{outcome="degraded"}`: 0,
		`serve_deadline_total{outcome="exceeded"}`: 0,
	} {
		if got := vals[series]; got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
}

// TestInvalidDeadlineHeader: malformed or non-positive header values
// are a 400, not a silently unbounded request.
func TestInvalidDeadlineHeader(t *testing.T) {
	s := testServer(t)
	for _, bad := range []string{"abc", "0", "-5", "1.5"} {
		rec := postH(t, s, outOfRange, map[string]string{deadlineHeader: bad}, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("deadline header %q: status %d, want 400", bad, rec.Code)
		}
	}
}

// blockingBackend parks every Estimate call until released, so tests
// can hold the admission gate's tokens deterministically.
type blockingBackend struct {
	inner   estimate.Backend
	entered chan struct{} // one send per call that reached the backend
	release chan struct{} // closed to let every parked call finish
}

func (b *blockingBackend) Name() string       { return b.inner.Name() }
func (b *blockingBackend) Provenance() string { return b.inner.Provenance() }
func (b *blockingBackend) Estimate(ctx context.Context, mach *machine.Machine, op machine.Op, algs mpi.Algorithms, p, m int, cfg measure.Config) (estimate.Estimate, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.inner.Estimate(ctx, mach, op, algs, p, m, cfg)
}

// gateServer is a single-entry server over a blocking analytic backend
// with an admission gate of (concurrent, queue).
func gateServer(t *testing.T, concurrent, queue int) (*Server, *blockingBackend) {
	t.Helper()
	bb := &blockingBackend{
		inner:   estimate.PaperAnalytic(),
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	reg := estimate.NewRegistry()
	if err := reg.Register(&estimate.Entry{
		Name: "blocked", Description: "analytic behind a latch", Backend: bb,
	}); err != nil {
		t.Fatal(err)
	}
	s := &Server{Registry: reg, Default: "blocked", Sim: estimate.Sim{}, Config: tinyCfg,
		Gate: NewGate(concurrent, queue)}
	instrument(s)
	return s, bb
}

const gateBody = `{"machine":"SP2","op":"alltoall","p":8,"m":1024}`

// TestShedQueueFull: with the one concurrency token held and no queue,
// the next request is shed with 429 + Retry-After and an exact
// serve_shed_total — and succeeds once the congestion clears.
func TestShedQueueFull(t *testing.T) {
	s, bb := gateServer(t, 1, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rec := post(t, s, gateBody, ""); rec.Code != http.StatusOK {
			t.Errorf("holder request: status %d: %s", rec.Code, rec.Body.String())
		}
	}()
	<-bb.entered // the holder owns the only token

	rec := post(t, s, gateBody, "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	close(bb.release)
	wg.Wait()
	if rec := post(t, s, gateBody, ""); rec.Code != http.StatusOK {
		t.Fatalf("post-congestion request: status %d: %s", rec.Code, rec.Body.String())
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	for series, want := range map[string]uint64{
		`serve_shed_total{reason="queue_full"}`:        1,
		`serve_shed_total{reason="timeout"}`:           0,
		`serve_requests_total{outcome="ok"}`:           2,
		`serve_requests_total{outcome="client_error"}`: 1, // the 429
		`serve_queue_depth`:                            0,
	} {
		if got := vals[series]; got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
}

// TestShedQueuedRequestExpires: a request whose context dies while
// waiting in the admission queue is shed as a timeout (503), and the
// queue-depth gauge returns to zero.
func TestShedQueuedRequestExpires(t *testing.T) {
	s, bb := gateServer(t, 1, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rec := post(t, s, gateBody, ""); rec.Code != http.StatusOK {
			t.Errorf("holder request: status %d: %s", rec.Code, rec.Body.String())
		}
	}()
	<-bb.entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expires the instant it queues
	rec := postH(t, s, gateBody, nil, ctx)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}

	close(bb.release)
	wg.Wait()
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	for series, want := range map[string]uint64{
		`serve_shed_total{reason="timeout"}`:    1,
		`serve_shed_total{reason="queue_full"}`: 0,
		`serve_queue_depth`:                     0,
	} {
		if got := vals[series]; got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
}

// TestChaosPanicRecovered: an injected backend panic answers 500 —
// single scenario and batched fan-out alike — and the in-flight gauge
// drops back to zero instead of leaking.
func TestChaosPanicRecovered(t *testing.T) {
	reg := estimate.NewRegistry()
	if err := reg.Register(&estimate.Entry{
		Name: "chaotic", Description: "always panics",
		Backend: &estimate.FaultBackend{Inner: estimate.PaperAnalytic(), Seed: 1, PanicProb: 1},
	}); err != nil {
		t.Fatal(err)
	}
	s := &Server{Registry: reg, Default: "chaotic", Sim: estimate.Sim{}, Config: tinyCfg}
	instrument(s)

	// Single-scenario path (no worker pool).
	rec := post(t, s, gateBody, "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "panicked") {
		t.Fatalf("500 body does not mention the panic: %s", rec.Body.String())
	}
	// Fan-out path: worker goroutines are outside net/http's recovery,
	// so this proves answerSafe catches them before they kill the process.
	batch := `[{"machine":"SP2","op":"alltoall","p":8,"m":1024},
	           {"machine":"T3D","op":"broadcast","p":8,"m":64},
	           {"machine":"Paragon","op":"gather","p":8,"m":256}]`
	if rec := post(t, s, batch, ""); rec.Code != http.StatusInternalServerError {
		t.Fatalf("batched status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	if got := vals[`serve_in_flight`]; got != 0 {
		t.Errorf("serve_in_flight = %d after panics, want 0", got)
	}
	if got := vals[`serve_requests_total{outcome="server_error"}`]; got != 2 {
		t.Errorf("server_error total = %d, want 2", got)
	}
}

// panickyProvenance panics outside the scenario workers — in the
// response-encode path — to exercise the recovery middleware proper.
type panickyProvenance struct{ estimate.Backend }

func (panickyProvenance) Provenance() string { panic("wired to blow") }

// TestHandlerPanicMiddleware: a panic that escapes serveEstimate (not
// routed through answerSafe) is converted to a 500 by the middleware,
// counted as a server error, with the in-flight gauge intact.
func TestHandlerPanicMiddleware(t *testing.T) {
	reg := estimate.NewRegistry()
	if err := reg.Register(&estimate.Entry{
		Name: "trapped", Description: "panics on Provenance",
		Backend: panickyProvenance{estimate.PaperAnalytic()},
	}); err != nil {
		t.Fatal(err)
	}
	s := &Server{Registry: reg, Default: "trapped", Sim: estimate.Sim{}, Config: tinyCfg}
	instrument(s)
	rec := post(t, s, gateBody, "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	if got := vals[`serve_in_flight`]; got != 0 {
		t.Errorf("serve_in_flight = %d, want 0", got)
	}
	if got := vals[`serve_requests_total{outcome="server_error"}`]; got != 1 {
		t.Errorf("server_error total = %d, want 1", got)
	}
}

// reloadFixture builds a server whose Reloader alternates calibration
// grids — every reload is a provenance change.
func reloadFixture(t *testing.T) (*Server, *atomic.Int64) {
	t.Helper()
	memo := estimate.NewSampleMemo()
	var gen atomic.Int64
	build := func() (*estimate.Registry, error) {
		lengths := []int{16, 1024}
		if gen.Load()%2 == 1 {
			lengths = []int{16, 2048}
		}
		cal := &estimate.Calibrated{Config: tinyCfg, Sizes: []int{4, 8}, Lengths: lengths, Memo: memo}
		reg := estimate.NewRegistry()
		if err := reg.Register(&estimate.Entry{
			Name: "test-cal", Description: "reloadable calibrated set",
			Backend: cal, Ranges: cal.Range,
		}); err != nil {
			return nil, err
		}
		return reg, nil
	}
	reg, err := build()
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{Registry: reg, Default: "test-cal", Sim: estimate.Sim{}, Config: tinyCfg,
		Cache: NewAnswerCache(1024),
		Reloader: func() (*estimate.Registry, error) {
			gen.Add(1)
			return build()
		}}
	instrument(s)
	return s, &gen
}

// TestReloadSwapsAndInvalidates: POST /v1/reload swaps the registry
// atomically, and nothing in the answer cache needs invalidating — it
// holds only simulator results, which the recalibration does not
// change. A fallback warmed before the reload is a hit after it, and
// the answer carries the new entry's envelope in its fallback_reason.
func TestReloadSwapsAndInvalidates(t *testing.T) {
	s, _ := reloadFixture(t)
	fetch := func(wantCache string) (Answer, string) {
		t.Helper()
		rec := post(t, s, outOfRange, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Estimate-Cache"); got != wantCache {
			t.Fatalf("X-Estimate-Cache %q, want %s", got, wantCache)
		}
		return decode(t, rec).Answers[0], rec.Header().Get("X-Estimate-Provenance")
	}
	fetch("miss")
	before, oldProv := fetch("hit")

	req := httptest.NewRequest(http.MethodPost, "/v1/reload", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"reloaded"`) {
		t.Fatalf("reload body: %s", rec.Body.String())
	}

	after, newProv := fetch("hit")
	if oldProv == newProv || newProv == "" {
		t.Fatalf("provenance did not change across reload: %q vs %q", oldProv, newProv)
	}
	if after.Micros != before.Micros {
		t.Fatalf("cached simulation changed across reload: %v vs %v", before.Micros, after.Micros)
	}
	if !strings.Contains(before.FallbackReason, "m∈[16,1024]") || !strings.Contains(after.FallbackReason, "m∈[16,2048]") {
		t.Fatalf("fallback_reason not rebuilt from the serving entry: before %q, after %q",
			before.FallbackReason, after.FallbackReason)
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	if got := vals[`serve_reloads_total{result="ok"}`]; got != 1 {
		t.Errorf(`reloads ok = %d, want 1`, got)
	}
}

// TestReloadUnderTraffic: sustained concurrent traffic across repeated
// reloads sees zero failed requests, and the serving provenance ends on
// the last reloaded registry's. The race gate runs this under -race.
func TestReloadUnderTraffic(t *testing.T) {
	s, _ := reloadFixture(t)
	const body = `{"machine":"T3D","op":"broadcast","p":8,"m":16}`
	const clients, perClient, reloads = 8, 40, 10

	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rec := post(t, s, body, "")
				if rec.Code != http.StatusOK {
					failed.Add(1)
					t.Errorf("request failed during reload: status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	for r := 0; r < reloads; r++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/reload", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", r, rec.Code, rec.Body.String())
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests failed across reloads", n)
	}
	// The serving entry is the last reloaded one.
	finalProv := post(t, s, body, "").Header().Get("X-Estimate-Provenance")
	entry, err := s.registry().Get(s.Default)
	if err != nil {
		t.Fatal(err)
	}
	if finalProv != entry.Backend.Provenance() {
		t.Fatalf("serving provenance %q, want the reloaded entry's %q", finalProv, entry.Backend.Provenance())
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	if got := vals[`serve_reloads_total{result="ok"}`]; got != reloads {
		t.Errorf(`reloads ok = %d, want %d`, got, reloads)
	}
}

// TestReloadFailureKeepsServing: a Reloader error (or a rebuild missing
// the default entry) is a 500, counted, and the old registry keeps
// answering.
func TestReloadFailureKeepsServing(t *testing.T) {
	s, _ := reloadFixture(t)
	const body = `{"machine":"T3D","op":"broadcast","p":8,"m":16}`
	if rec := post(t, s, body, ""); rec.Code != http.StatusOK {
		t.Fatalf("pre-failure request: %d", rec.Code)
	}
	prov := post(t, s, body, "").Header().Get("X-Estimate-Provenance")

	s.Reloader = func() (*estimate.Registry, error) {
		return estimate.NewRegistry(), nil // valid but lacks "test-cal"
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/reload", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("reload without default entry: status %d, want 500", rec.Code)
	}

	// The old registry is untouched.
	after := post(t, s, body, "")
	if after.Code != http.StatusOK || after.Header().Get("X-Estimate-Provenance") != prov {
		t.Fatalf("serving changed after failed reload: %d, %q", after.Code, after.Header().Get("X-Estimate-Provenance"))
	}
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	if got := vals[`serve_reloads_total{result="error"}`]; got != 1 {
		t.Errorf(`reloads error = %d, want 1`, got)
	}
}

// TestReloadNotMountedWithoutReloader: a server with no Reloader does
// not expose POST /v1/reload at all.
func TestReloadNotMountedWithoutReloader(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/reload", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
}

// TestGateUnit: the token bucket's contract, without HTTP around it.
func TestGateUnit(t *testing.T) {
	if g := NewGate(0, 5); g != nil {
		t.Fatal("NewGate(0, _) should disable gating")
	}
	var nilGate *Gate
	if err := nilGate.Acquire(context.Background(), nil); err != nil {
		t.Fatalf("nil gate refused: %v", err)
	}
	nilGate.Release()

	g := NewGate(2, 1)
	ctx := context.Background()
	if err := g.Acquire(ctx, nil); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := g.Acquire(ctx, nil); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	// Both tokens held; the queue admits one waiter. A dead context
	// makes the queued wait return deterministically.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := g.Acquire(dead, nil); err != context.Canceled {
		t.Fatalf("queued acquire under dead ctx: %v, want context.Canceled", err)
	}
	// Queue emptied again (the waiter left); a released token admits
	// the next acquire immediately.
	g.Release()
	if err := g.Acquire(ctx, nil); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}

	// Fill the queue to budget, then one more is ErrQueueFull.
	hold := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		err := g.Acquire(ctx, nil) // parks: no tokens free
		done <- err
		<-hold
	}()
	// Wait until the goroutine is queued.
	for g.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := g.Acquire(ctx, nil); err != ErrQueueFull {
		t.Fatalf("over-budget acquire: %v, want ErrQueueFull", err)
	}
	g.Release() // admits the queued waiter
	if err := <-done; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	close(hold)
}

// TestRequestDeadlineResolution: header beats server default beats
// unbounded.
func TestRequestDeadlineResolution(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", nil)
	if d, has, err := requestDeadline(req, 0); has || err != nil || d != 0 {
		t.Fatalf("no header, no default: (%v, %v, %v)", d, has, err)
	}
	if d, has, err := requestDeadline(req, 5*time.Second); !has || err != nil || d != 5*time.Second {
		t.Fatalf("server default: (%v, %v, %v)", d, has, err)
	}
	req.Header.Set(deadlineHeader, "250")
	if d, has, err := requestDeadline(req, 5*time.Second); !has || err != nil || d != 250*time.Millisecond {
		t.Fatalf("header override: (%v, %v, %v)", d, has, err)
	}
	req.Header.Set(deadlineHeader, "-1")
	if _, _, err := requestDeadline(req, 0); err == nil {
		t.Fatal("negative header accepted")
	}
}

// TestChaosSoak is the fault-injection soak the CI race job runs
// explicitly: a fixed request count against a server whose fallback
// simulator injects latency, errors, and panics by seeded probability,
// under a deadline and an admission gate. Every response must be one
// of the stack's deliberate outcomes, the in-flight and queue gauges
// must return to zero, and no goroutine may leak.
func TestChaosSoak(t *testing.T) {
	base := countGoroutines()
	memo := estimate.NewSampleMemo()
	cal := &estimate.Calibrated{Config: tinyCfg, Sizes: []int{4, 8}, Lengths: []int{16, 1024}, Memo: memo}
	reg := estimate.NewRegistry()
	if err := reg.Register(&estimate.Entry{
		Name: "soak-cal", Description: "calibrated set under chaos", Backend: cal, Ranges: cal.Range,
	}); err != nil {
		t.Fatal(err)
	}
	s := &Server{
		Registry: reg, Default: "soak-cal",
		Sim: &estimate.FaultBackend{
			Inner: estimate.Sim{Memo: memo}, Seed: 42,
			LatencyProb: 0.25, Latency: 300 * time.Millisecond, // > deadline: forces degraded answers
			ErrorProb: 0.25,
			PanicProb: 0.15,
		},
		Config:  tinyCfg,
		Timeout: 150 * time.Millisecond,
		Gate:    NewGate(4, 64),
		Cache:   NewAnswerCache(256),
	}
	instrument(s)

	// A fixed scenario mix: in-range (clean, calibrated) and
	// out-of-range (through the chaos-wrapped simulator). The fault
	// schedule is per-scenario-deterministic, so the soak replays
	// identically for a given seed.
	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	var unexpected atomic.Int64
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				m := 16
				if (c+i)%2 == 1 {
					// Out of range: chaos territory. The halved index walks
					// all 16 chaos scenarios (the raw counter shares the
					// parity gate above and would only ever hit odd ones).
					m = 4096 + 1024*((c*perClient+i)/2%16)
				}
				body := fmt.Sprintf(`{"machine":"T3D","op":"broadcast","p":8,"m":%d}`, m)
				rec := post(t, s, body, "")
				switch rec.Code {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable,
					http.StatusGatewayTimeout, http.StatusInternalServerError:
				default:
					unexpected.Add(1)
					t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	wg.Wait()
	if unexpected.Load() != 0 {
		t.Fatalf("%d responses outside the deliberate outcome set", unexpected.Load())
	}

	vals := promValues(t, get(t, s, "/metrics").Body.String())
	if got := vals[`serve_in_flight`]; got != 0 {
		t.Errorf("serve_in_flight = %d after the soak, want 0", got)
	}
	if got := vals[`serve_queue_depth`]; got != 0 {
		t.Errorf("serve_queue_depth = %d after the soak, want 0", got)
	}
	total := vals[`serve_requests_total{outcome="ok"}`] +
		vals[`serve_requests_total{outcome="client_error"}`] +
		vals[`serve_requests_total{outcome="server_error"}`]
	if want := uint64(clients * perClient); total != want {
		t.Errorf("requests accounted = %d, want %d (every request observed exactly once)", total, want)
	}
	// The seeded fault schedule guarantees each failure mode fires at
	// least once over this mix — a zero here means the soak silently
	// stopped exercising that path.
	if got := vals[`serve_degraded_total`]; got == 0 {
		t.Error("soak produced no degraded answers: latency injection never raced the deadline")
	}
	if got := vals[`serve_requests_total{outcome="server_error"}`]; got == 0 {
		t.Error("soak produced no server errors: panic/error injection never fired")
	}

	// Goroutine-leak check: cancelled simulations and recovered panics
	// must reclaim every goroutine they spawned.
	deadline := time.Now().Add(10 * time.Second)
	for countGoroutines() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, base %d", countGoroutines(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func countGoroutines() int {
	runtime.Gosched()
	return runtime.NumGoroutine()
}
