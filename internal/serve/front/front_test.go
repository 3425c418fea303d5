package front

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// tinyCfg mirrors the serve package's test methodology: fast,
// deterministic, seeded.
var tinyCfg = measure.Config{Warmup: 1, K: 2, Reps: 1, Seed: 3}

// testRegistry builds the serve package's two-entry test registry: a
// tiny calibrated set with handcrafted bounds, plus the paper's
// Table 3. Shared read-only across workers, so every worker answers
// identically by construction — what a uniform fleet deploys.
func testRegistry(t testing.TB, memo *estimate.SampleMemo) *estimate.Registry {
	t.Helper()
	cal := &estimate.Calibrated{
		Config: tinyCfg, Sizes: []int{4, 8}, Lengths: []int{16, 1024}, Memo: memo,
	}
	bounds := &estimate.ErrorTable{
		Backend: cal.Name(), Provenance: cal.Provenance(),
		Cells: []estimate.ErrorCell{
			{Machine: "T3D", Op: machine.OpBroadcast, M: 16, Median: 0.01, Max: 0.05, Points: 4},
			{Machine: "T3D", Op: machine.OpBroadcast, M: 1024, Median: 0.02, Max: 0.08, Points: 4},
		},
	}
	reg := estimate.NewRegistry()
	for _, e := range []*estimate.Entry{
		{Name: "test-cal", Description: "tiny calibrated set",
			Backend: cal, Bounds: bounds, Ranges: cal.Range},
		{Name: "paper", Description: "paper Table 3",
			Backend: estimate.PaperAnalytic()},
	} {
		if err := reg.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// workerHandle is one in-process fleet worker: a full serve.Server
// (metrics, traces, reloader) behind an httptest listener.
type workerHandle struct {
	name       string
	srv        *serve.Server
	hs         *httptest.Server
	reg        *obs.Registry
	failReload atomic.Bool
	reloads    atomic.Int64
}

// newWorker builds one instrumented worker over the shared registry.
func newWorker(t *testing.T, name string, sreg *estimate.Registry, memo *estimate.SampleMemo) *workerHandle {
	t.Helper()
	w := &workerHandle{name: name, reg: obs.NewRegistry()}
	w.srv = &serve.Server{
		Registry: sreg, Default: "test-cal",
		Sim: estimate.Sim{Memo: memo}, Config: tinyCfg,
		Obs:         serve.NewMetrics(w.reg),
		Traces:      obs.NewTraceRing(64),
		TraceSample: 1,
		Reloader: func() (*estimate.Registry, error) {
			if w.failReload.Load() {
				return nil, fmt.Errorf("injected reload failure on %s", name)
			}
			w.reloads.Add(1)
			return sreg, nil
		},
	}
	w.hs = httptest.NewServer(w.srv.Handler())
	t.Cleanup(w.hs.Close)
	return w
}

// fleetFixture is N in-process workers behind a front, plus one direct
// worker over the same registry for identity comparisons.
type fleetFixture struct {
	front   *Front
	hs      *httptest.Server
	metrics *Metrics
	workers []*workerHandle
	direct  *workerHandle
}

func newFleet(t *testing.T, n int) *fleetFixture {
	t.Helper()
	memo := estimate.NewSampleMemo()
	sreg := testRegistry(t, memo)
	fx := &fleetFixture{direct: newWorker(t, "direct", sreg, memo)}
	var ring []Worker
	for i := 0; i < n; i++ {
		w := newWorker(t, fmt.Sprintf("w%d", i), sreg, memo)
		fx.workers = append(fx.workers, w)
		ring = append(ring, Worker{Name: w.name, URL: w.hs.URL})
	}
	fx.metrics = NewMetrics(obs.NewRegistry(), WorkerNames(ring))
	f, err := New(Config{
		Workers: ring, Metrics: fx.metrics,
		Timeout: 10 * time.Second, DrainTimeout: 5 * time.Second, ReloadTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.front = f
	fx.hs = httptest.NewServer(f.Handler())
	t.Cleanup(fx.hs.Close)
	return fx
}

// testScenarios spans three machines and operations so a three-worker
// fleet gets sub-batches on every shard.
func testScenarios() []serve.Scenario {
	var scns []serve.Scenario
	for _, mo := range []struct {
		mach string
		op   string
	}{{"T3D", "broadcast"}, {"SP2", "alltoall"}, {"Paragon", "scatter"}} {
		for _, p := range []int{4, 8} {
			for _, m := range []int{16, 1024} {
				scns = append(scns, serve.Scenario{Machine: mo.mach, Op: mo.op, P: p, M: m})
			}
		}
	}
	return scns
}

func postBody(t *testing.T, url, contentType string, body []byte, header map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// promValues parses the single-value lines of a Prometheus text body.
func promValues(t *testing.T, body string) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			continue // histogram sums can be floats; irrelevant here
		}
		out[line[:i]] = v
	}
	return out
}

func TestOwnerDeterminism(t *testing.T) {
	// "" and "default" are the same algorithm, so they must shard
	// identically — otherwise one scenario would warm two caches.
	if Owner("T3D", "broadcast", "", 8, 1024, 3) != Owner("T3D", "broadcast", "default", 8, 1024, 3) {
		t.Fatal(`"" and "default" algorithms shard differently`)
	}
	// Stability: the same identity always lands on the same worker.
	for i := 0; i < 3; i++ {
		if Owner("SP2", "alltoall", "", 32, 4096, 5) != Owner("SP2", "alltoall", "", 32, 4096, 5) {
			t.Fatal("Owner is not deterministic")
		}
	}
	// Field separation: shifting a byte across the machine/op boundary
	// changes the key.
	if Owner("T3Db", "roadcast", "", 8, 16, 1<<30) == Owner("T3D", "broadcast", "", 8, 16, 1<<30) {
		t.Fatal("field boundary does not separate the hash")
	}
	// The 788-grid spreads across a small fleet rather than collapsing
	// onto one worker.
	counts := make([]int, 3)
	for _, sc := range testScenarios() {
		counts[Owner(sc.Machine, sc.Op, sc.Algorithm, sc.P, sc.M, 3)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("worker %d owns no scenario of a 12-point spread: %v", i, counts)
		}
	}
}

func TestNewValidatesWorkers(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty fleet")
	}
	if _, err := New(Config{Workers: []Worker{{Name: "w0", URL: "http://a"}, {Name: "w0", URL: "http://b"}}}); err == nil {
		t.Fatal("New accepted duplicate worker names")
	}
	if _, err := New(Config{Workers: []Worker{{Name: "", URL: "http://a"}}}); err == nil {
		t.Fatal("New accepted a nameless worker")
	}
}

// TestFrontJSONByteIdentical is the sharding contract: the response the
// front assembles from three workers is byte-identical to the response
// one worker writes for the same batch.
func TestFrontJSONByteIdentical(t *testing.T) {
	fx := newFleet(t, 3)
	body, err := json.Marshal(testScenarios())
	if err != nil {
		t.Fatal(err)
	}
	direct := postBody(t, fx.direct.hs.URL+"/v1/estimate", "application/json", body, nil)
	fronted := postBody(t, fx.hs.URL+"/v1/estimate", "application/json", body, nil)
	directBytes, frontBytes := readAll(t, direct), readAll(t, fronted)
	if direct.StatusCode != http.StatusOK || fronted.StatusCode != http.StatusOK {
		t.Fatalf("direct %d, front %d: %s", direct.StatusCode, fronted.StatusCode, frontBytes)
	}
	if !bytes.Equal(directBytes, frontBytes) {
		t.Fatalf("front response drifted from the direct worker's:\ndirect: %s\nfront:  %s", directBytes, frontBytes)
	}
	for _, h := range []string{"X-Estimate-Registry", "X-Estimate-Backend", "X-Estimate-Provenance"} {
		if fronted.Header.Get(h) != direct.Header.Get(h) {
			t.Fatalf("%s: front %q vs direct %q", h, fronted.Header.Get(h), direct.Header.Get(h))
		}
	}
	if id := fronted.Header.Get(serve.TraceIDHeader); id == "" {
		t.Fatal("front response carries no X-Trace-Id")
	}
	// The fleet actually sharded: more than one worker served estimate
	// requests.
	served := 0
	for _, w := range fx.workers {
		vals := promValues(t, string(readAll(t, postGet(t, w.hs.URL+"/metrics"))))
		if vals[`serve_requests_total{outcome="ok"}`] > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("only %d workers served the batch — not sharded", served)
	}
}

func postGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestFrontNDJSONByteIdentical(t *testing.T) {
	fx := newFleet(t, 3)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sc := range testScenarios() {
		if err := enc.Encode(sc); err != nil {
			t.Fatal(err)
		}
	}
	direct := postBody(t, fx.direct.hs.URL+"/v1/estimate", "application/x-ndjson", buf.Bytes(), nil)
	fronted := postBody(t, fx.hs.URL+"/v1/estimate", "application/x-ndjson", buf.Bytes(), nil)
	directBytes, frontBytes := readAll(t, direct), readAll(t, fronted)
	if direct.StatusCode != http.StatusOK || fronted.StatusCode != http.StatusOK {
		t.Fatalf("direct %d, front %d: %s", direct.StatusCode, fronted.StatusCode, frontBytes)
	}
	if !bytes.Equal(directBytes, frontBytes) {
		t.Fatalf("NDJSON merge drifted:\ndirect: %s\nfront:  %s", directBytes, frontBytes)
	}
}

// wireRequest encodes scns as one binary request frame.
func wireRequest(scns []serve.Scenario) []byte {
	var req wire.Request
	index := map[string]uint32{}
	intern := func(s string) uint32 {
		if i, ok := index[s]; ok {
			return i
		}
		i := uint32(len(req.Table))
		req.Table = append(req.Table, s)
		index[s] = i
		return i
	}
	for _, sc := range scns {
		req.Records = append(req.Records, wire.Record{
			Mach: intern(sc.Machine), Op: intern(sc.Op), Alg: intern(sc.Algorithm),
			P: sc.P, M: sc.M,
		})
	}
	return req.Append(nil)
}

func TestFrontBinaryByteIdentical(t *testing.T) {
	fx := newFleet(t, 3)
	frame := wireRequest(testScenarios())
	direct := postBody(t, fx.direct.hs.URL+"/v1/estimate", wire.ContentType, frame, nil)
	fronted := postBody(t, fx.hs.URL+"/v1/estimate", wire.ContentType, frame, nil)
	directBytes, frontBytes := readAll(t, direct), readAll(t, fronted)
	if direct.StatusCode != http.StatusOK || fronted.StatusCode != http.StatusOK {
		t.Fatalf("direct %d, front %d", direct.StatusCode, fronted.StatusCode)
	}
	if !bytes.Equal(directBytes, frontBytes) {
		t.Fatal("binary merge drifted from the direct worker's frame")
	}
	var dr, fr wire.Response
	if err := fr.Decode(frontBytes); err != nil {
		t.Fatalf("front frame does not decode: %v", err)
	}
	if err := dr.Decode(directBytes); err != nil {
		t.Fatal(err)
	}
	for i := range dr.Answers {
		if dr.Answers[i].Micros != fr.Answers[i].Micros {
			t.Fatalf("answer %d: direct %v vs front %v µs", i, dr.Answers[i].Micros, fr.Answers[i].Micros)
		}
	}
}

// TestFrontFailover kills a worker mid-fleet and requires the batch to
// still answer completely, with the retries counter moving and the dead
// worker marked down for the next request.
func TestFrontFailover(t *testing.T) {
	fx := newFleet(t, 3)
	scns := testScenarios()
	// Kill the worker that owns the first scenario, so at least one
	// sub-batch must fail over.
	owner := Owner(scns[0].Machine, scns[0].Op, scns[0].Algorithm, scns[0].P, scns[0].M, 3)
	fx.workers[owner].hs.Close()

	body, _ := json.Marshal(scns)
	resp := postBody(t, fx.hs.URL+"/v1/estimate", "application/json", body, nil)
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch failed with a worker down: %d %s", resp.StatusCode, got)
	}
	var r serve.Response
	if err := json.Unmarshal(got, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Answers) != len(scns) {
		t.Fatalf("%d answers for %d scenarios", len(r.Answers), len(scns))
	}
	if fx.metrics.Retries() == 0 {
		t.Fatal("front_retries_total did not move during failover")
	}
	// The transport error marked the worker down; the next request's
	// ladder skips it (no new error-outcome sub-requests against it).
	vals := func() map[string]uint64 {
		var buf bytes.Buffer
		fx.metrics.Registry().WritePrometheus(&buf)
		return promValues(t, buf.String())
	}
	deadErr := vals()[fmt.Sprintf(`front_worker_requests_total{worker="w%d",outcome="error"}`, owner)]
	if deadErr == 0 {
		t.Fatal("dead worker's error counter did not move")
	}
	resp2 := postBody(t, fx.hs.URL+"/v1/estimate", "application/json", body, nil)
	if readAll(t, resp2); resp2.StatusCode != http.StatusOK {
		t.Fatalf("second batch failed: %d", resp2.StatusCode)
	}
	if after := vals()[fmt.Sprintf(`front_worker_requests_total{worker="w%d",outcome="error"}`, owner)]; after != deadErr {
		t.Fatalf("down-marked worker was retried first pass: %d → %d errors", deadErr, after)
	}
	if vals()[`front_rebalance_total`] == 0 {
		t.Fatal("front_rebalance_total did not move though a non-owner answered")
	}
}

// TestFrontPermanent4xx: a worker's non-429 4xx propagates to the
// client unchanged instead of burning the failover ladder.
func TestFrontPermanent4xx(t *testing.T) {
	fx := newFleet(t, 3)
	body := []byte(`[{"machine":"NoSuchMachine","op":"broadcast","p":8,"m":16}]`)
	resp := postBody(t, fx.hs.URL+"/v1/estimate", "application/json", body, nil)
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, got)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(got, &env); err != nil || env.Error == "" {
		t.Fatalf("propagated 400 lost the worker's error envelope: %s", got)
	}
	if fx.metrics.Retries() != 0 {
		t.Fatal("a permanent 4xx consumed failover retries")
	}
}

func TestFront415EchoesTraceAndAcceptPost(t *testing.T) {
	fx := newFleet(t, 2)
	resp := postBody(t, fx.hs.URL+"/v1/estimate", "text/xml", []byte("<no/>"),
		map[string]string{serve.TraceIDHeader: "front-415-probe"})
	readAll(t, resp)
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d, want 415", resp.StatusCode)
	}
	if got := resp.Header.Get("Accept-Post"); got != serve.AcceptPost {
		t.Fatalf("Accept-Post %q", got)
	}
	if got := resp.Header.Get(serve.TraceIDHeader); got != "front-415-probe" {
		t.Fatalf("shed path did not echo the inbound trace ID: %q", got)
	}
}

// TestTracePropagation sends a fixed X-Trace-Id through the front and
// finds it in the owning worker's /debug/traces ring.
func TestTracePropagation(t *testing.T) {
	fx := newFleet(t, 3)
	sc := serve.Scenario{Machine: "T3D", Op: "broadcast", P: 8, M: 16}
	owner := Owner(sc.Machine, sc.Op, sc.Algorithm, sc.P, sc.M, 3)
	body, _ := json.Marshal([]serve.Scenario{sc})
	const id = "fleet-trace-0042"
	resp := postBody(t, fx.hs.URL+"/v1/estimate", "application/json", body,
		map[string]string{serve.TraceIDHeader: id})
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(serve.TraceIDHeader); got != id {
		t.Fatalf("front echoed %q, want %q", got, id)
	}
	traces := string(readAll(t, postGet(t, fx.workers[owner].hs.URL+"/debug/traces")))
	if !strings.Contains(traces, id) {
		t.Fatalf("owning worker w%d's trace ring lacks %q:\n%s", owner, id, traces)
	}
	// The exhausted-failover error path echoes the ID too.
	for _, w := range fx.workers {
		w.hs.Close()
	}
	resp2 := postBody(t, fx.hs.URL+"/v1/estimate", "application/json", body,
		map[string]string{serve.TraceIDHeader: "fleet-trace-down"})
	readAll(t, resp2)
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d with the whole fleet down, want 502", resp2.StatusCode)
	}
	if got := resp2.Header.Get(serve.TraceIDHeader); got != "fleet-trace-down" {
		t.Fatalf("502 path did not echo the trace ID: %q", got)
	}
}

// TestRollingReloadUnderLoad rolls the fleet while traffic flows:
// zero non-200 estimate responses, every worker's
// serve_reloads_total{result="ok"} moves, and the report says
// "reloaded" for all three.
func TestRollingReloadUnderLoad(t *testing.T) {
	fx := newFleet(t, 3)
	body, _ := json.Marshal(testScenarios())
	// Warm once so calibration cost doesn't stretch the traffic loop.
	if resp := postBody(t, fx.hs.URL+"/v1/estimate", "application/json", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: %d", resp.StatusCode)
	} else {
		readAll(t, resp)
	}

	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(fx.hs.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
				if err != nil {
					bad.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
				}
			}
		}()
	}

	resp := postBody(t, fx.hs.URL+"/v1/reload", "", nil, nil)
	report := readAll(t, resp)
	close(stop)
	wg.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rolling reload answered %d: %s", resp.StatusCode, report)
	}
	var rr ReloadReport
	if err := json.Unmarshal(report, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "reloaded" || len(rr.Workers) != 3 {
		t.Fatalf("report %+v", rr)
	}
	for _, row := range rr.Workers {
		if row.State != "reloaded" {
			t.Fatalf("worker %s state %q", row.Worker, row.State)
		}
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d estimate requests failed during the rolling reload", n)
	}
	for _, w := range fx.workers {
		vals := promValues(t, string(readAll(t, postGet(t, w.hs.URL+"/metrics"))))
		if vals[`serve_reloads_total{result="ok"}`] == 0 {
			t.Fatalf("worker %s never reloaded", w.name)
		}
	}
}

// TestReloadHaltsOnFailure: a worker whose rebuild fails stops the
// rollout; the report is "partial" with the remaining workers skipped,
// and the fleet keeps serving.
func TestReloadHaltsOnFailure(t *testing.T) {
	fx := newFleet(t, 3)
	fx.workers[1].failReload.Store(true)
	resp := postBody(t, fx.hs.URL+"/v1/reload", "", nil, nil)
	report := readAll(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("halted rollout answered %d, want 500: %s", resp.StatusCode, report)
	}
	var rr ReloadReport
	if err := json.Unmarshal(report, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "partial" {
		t.Fatalf("status %q, want partial", rr.Status)
	}
	want := []string{"reloaded", "failed", "skipped"}
	for i, row := range rr.Workers {
		if row.State != want[i] {
			t.Fatalf("worker %d state %q, want %q (report %+v)", i, row.State, want[i], rr)
		}
	}
	if rr.Workers[1].Error == "" {
		t.Fatal("failed worker's row carries no error")
	}
	// The gate was undrained on the failure path: traffic still flows.
	body, _ := json.Marshal(testScenarios()[:2])
	if resp := postBody(t, fx.hs.URL+"/v1/estimate", "application/json", body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet stopped serving after a failed rollout: %d", resp.StatusCode)
	} else {
		readAll(t, resp)
	}
}

// TestFrontMetricsAndStatus: GET /metrics exposes the front's own
// families, and /status reports the failover view.
func TestFrontMetricsAndStatus(t *testing.T) {
	fx := newFleet(t, 2)
	body, _ := json.Marshal(testScenarios()[:4])
	readAll(t, postBody(t, fx.hs.URL+"/v1/estimate", "application/json", body, nil))

	metrics := string(readAll(t, postGet(t, fx.hs.URL+"/metrics")))
	vals := promValues(t, metrics)
	if vals[`front_requests_total{outcome="ok"}`] != 1 {
		t.Fatalf("front_requests_total{ok} = %d, want 1\n%s",
			vals[`front_requests_total{outcome="ok"}`], metrics)
	}
	if !strings.Contains(metrics, "front_worker_requests_total") {
		t.Fatal("per-worker series missing from /metrics")
	}

	status := readAll(t, postGet(t, fx.hs.URL+"/status"))
	var doc struct {
		Workers []WorkerStatus `json:"workers"`
	}
	if err := json.Unmarshal(status, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workers) != 2 || !doc.Workers[0].Live || !doc.Workers[1].Live {
		t.Fatalf("status %s", status)
	}
}

// TestRegistryProxy: GET /v1/registry through the front matches a
// direct worker's listing.
func TestRegistryProxy(t *testing.T) {
	fx := newFleet(t, 2)
	fronted := readAll(t, postGet(t, fx.hs.URL+"/v1/registry"))
	direct := readAll(t, postGet(t, fx.direct.hs.URL+"/v1/registry"))
	if !bytes.Equal(fronted, direct) {
		t.Fatalf("registry listing drifted:\nfront:  %s\ndirect: %s", fronted, direct)
	}
}
