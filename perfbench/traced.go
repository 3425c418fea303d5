package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/serve"
	"repro/internal/serve/front"
	"repro/internal/serve/wire"
	"repro/internal/sim"
)

// worker is one in-process serve worker, configured as cmd/serve's
// defaults are (registry, memo, answer cache, admission gate, metrics,
// 1-in-100 trace ring), behind a loopback listener.
type worker struct {
	srv     *serve.Server
	metrics *serve.Metrics
	reg     *obs.Registry
	cal     *estimate.Calibrated
	http    *httptest.Server
	warm    time.Duration // precalibration of every triple, as -warm does
}

func newWorker(tr *tracer) (*worker, error) {
	reg := obs.NewRegistry()
	metrics := serve.NewMetrics(reg)
	memo := estimate.NewSampleMemo()
	registry := estimate.StandardRegistry(estimate.RegistryConfig{Memo: memo, Obs: reg})
	entry, err := registry.Get(servedEntry)
	if err != nil {
		return nil, err
	}
	cal, ok := entry.Backend.(*estimate.Calibrated)
	if !ok {
		return nil, fmt.Errorf("%s is not calibrated", servedEntry)
	}
	t0 := time.Now()
	cal.Precalibrate(estimateTriples(allTriples()), 0)
	w := &worker{metrics: metrics, reg: reg, cal: cal, warm: time.Since(t0)}
	w.srv = &serve.Server{
		Registry:    registry,
		Default:     servedEntry,
		Sim:         tracedSim{t: tr, inner: estimate.Sim{Memo: memo}},
		Timeout:     30 * time.Second,
		Gate:        serve.NewGate(2*runtime.GOMAXPROCS(0), 128),
		Obs:         metrics,
		Cache:       serve.NewAnswerCache(1 << 18),
		Traces:      obs.NewTraceRing(256),
		TraceSample: 100,
		TraceSlow:   time.Second,
	}
	w.http = httptest.NewServer(tr.handler("serve.handler", w.srv.Handler()))
	return w, nil
}

// inproc is the traced run's stack: two workers and a front over them,
// the front's sub-requests timed by the benchmark's RoundTripper.
type inproc struct {
	workers  []*worker
	front    *httptest.Server
	frontReg *obs.Registry
}

func newInproc(tr *tracer) (*inproc, error) {
	s := &inproc{frontReg: obs.NewRegistry()}
	var ring []front.Worker
	for i := 0; i < 2; i++ {
		w, err := newWorker(tr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, w)
		ring = append(ring, front.Worker{Name: fmt.Sprintf("w%d", i), URL: w.http.URL})
	}
	f, err := front.New(front.Config{
		Workers: ring,
		Client:  &http.Client{Transport: &roundTripper{t: tr, inner: &http.Transport{MaxIdleConnsPerHost: 8}}},
		Metrics: front.NewMetrics(s.frontReg, front.WorkerNames(ring)),
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.front = httptest.NewServer(tr.handler("front.handler", f.Handler()))
	return s, nil
}

func (s *inproc) close() {
	if s.front != nil {
		s.front.Close()
	}
	for _, w := range s.workers {
		w.http.Close()
	}
}

// counter sums a registry's counter family over the series whose label
// key has value val ("" matches every series). The registry is the
// benchmark's own, so an export that does not parse back is a bug.
func counter(reg *obs.Registry, family, key, val string) float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		panic(fmt.Sprintf("exporting metrics: %v", err))
	}
	pm, err := obs.ParsePrometheus(buf.Bytes())
	if err != nil {
		panic(fmt.Sprintf("parsing our own metrics export: %v", err))
	}
	var sum uint64
	for _, f := range pm.Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if key == "" || hasLabel(s.Labels, key, val) {
				sum += s.Counter
			}
		}
	}
	return float64(sum)
}

func hasLabel(ls []obs.Label, key, val string) bool {
	for _, l := range ls {
		if l.Key == key && l.Value == val {
			return true
		}
	}
	return false
}

// workerCounters sums a counter family over the workers.
func (s *inproc) workerCounters(family, key, val string) float64 {
	sum := 0.0
	for _, w := range s.workers {
		sum += counter(w.reg, family, key, val)
	}
	return sum
}

// ratio returns a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// runTraced builds the serving stack in-process, runs the workload's
// traffic against one worker untraced and traced, replays each layer
// directly, probes the front, and reports the per-layer metrics and
// the ladder.
func runTraced(name string, seed int64, d time.Duration, spansPath string) (runResult, error) {
	sp := specs[name]
	sim.EnableCounters(true)
	tr := newTracer()
	m := metricSet{}
	ref, refWarm, err := newReference()
	if err != nil {
		return runResult{}, err
	}
	ld, err := sp.prepare(ref, seed)
	if err != nil {
		return runResult{}, err
	}
	st, err := newInproc(tr)
	if err != nil {
		return runResult{}, err
	}
	defer st.close()
	warms := []float64{refWarm.Seconds()}
	for _, w := range st.workers {
		warms = append(warms, w.warm.Seconds())
	}
	m.set("estimate.precalibrate_s", median(warms), "s")

	// Traffic: the workload's own stream, alternating untraced and
	// traced quarters so host drift hits both sides alike.
	ld.bind(newClient(nil), st.workers[0].http.URL)
	hit0 := st.workerCounters("serve_answer_cache_total", "result", "hit")
	miss0 := st.workerCounters("serve_answer_cache_total", "result", "miss")
	var scen0, fb0 uint64
	for _, w := range st.workers {
		_, s, f := w.metrics.Totals()
		scen0, fb0 = scen0+s, fb0+f
	}
	var cost [2]float64 // per-request mean latency, untraced / traced
	next := 0
	attempted := 0
	for q := 0; q < 4; q++ {
		traced := q%2 == 1
		tr.on.Store(traced)
		send := func(c, i int) (int, bool) {
			if !traced {
				return ld.send(c, i, nil)
			}
			id := fmt.Sprintf("bench-%d-%d", seed, i)
			s := tr.begin(spanRef{trace: id}, "client.request")
			n, ok := ld.send(c, i, http.Header{serve.TraceIDHeader: {id}, parentHeader: {strconv.FormatUint(s.ID, 10)}})
			tr.end(s)
			return n, ok
		}
		base := next
		r := runClosed(maxConns, d/4, func(c, i int) (int, bool) { return send(c, base+i) })
		next += len(r.lat)
		attempted += len(r.lat)
		var sum time.Duration
		for _, l := range r.lat {
			sum += min(l, requestTimeout)
		}
		if len(r.lat) > 0 {
			cost[q%2] += float64(sum) / float64(len(r.lat))
		}
	}
	tr.on.Store(false)
	m.set("bench.trace_overhead", cost[1]/cost[0]-1, "ratio")
	if err := ld.finish(ref, seed); err != nil {
		return runResult{}, err
	}

	hit1 := st.workerCounters("serve_answer_cache_total", "result", "hit")
	miss1 := st.workerCounters("serve_answer_cache_total", "result", "miss")
	m.set("serve.answer_cache_hit_ratio", ratio(hit1-hit0, miss1-miss0), "ratio")
	var scen1, fb1 uint64
	for _, w := range st.workers {
		_, s, f := w.metrics.Totals()
		scen1, fb1 = scen1+s, fb1+f
	}
	m.set("serve.fallback_share", float64(fb1-fb0)/float64(max(scen1-scen0, 1)), "ratio")
	m.set("estimate.memo_hit_ratio", ratio(st.workerCounters("estimate_memo_total", "result", "hit"),
		st.workerCounters("estimate_memo_total", "result", "miss")), "ratio")
	m.set("serve.shed", st.workerCounters("serve_shed_total", "", ""), "count")
	m.set("front.retries", counter(st.frontReg, "front_retries_total", "", ""), "count")
	m.set("front.rebalance", counter(st.frontReg, "front_rebalance_total", "", ""), "count")

	fails := ld.failureLog()
	lad, err := replayLadder(st, ref, seed, m, fails)
	if err != nil {
		return runResult{}, err
	}
	if err := frontOverhead(st, tr, seed, m); err != nil {
		return runResult{}, err
	}
	n, err := openLadder(st, ref, seed, d/2, m, fails)
	if err != nil {
		return runResult{}, err
	}
	attempted += n
	if err := simProbe(seed, m); err != nil {
		return runResult{}, err
	}
	calibrationProbe(m)

	spans := tr.taken()
	stats := bySpanName(spans)
	for _, n := range []string{"client.request", "front.handler", "front.subrequest", "serve.handler", "estimate.sim"} {
		m.set("span."+n+".self_ms", stats[n].selfMS, "ms")
	}
	m.set("front.subrequest_ms", stats["front.subrequest"].durMS, "ms")

	fmt.Printf("per-layer ladder\n  %-44s %12s %s\n", "row", "ns/scenario", "÷ row below")
	for i, r := range lad {
		ratio := "      —"
		if i+1 < len(lad) {
			ratio = fmt.Sprintf("%7.3f", r.ns/lad[i+1].ns)
		}
		fmt.Printf("  %-44s %12.1f %s\n", r.name, r.ns, ratio)
	}
	fmt.Println("spans (median duration and self time):")
	for _, n := range []string{"client.request", "front.handler", "front.subrequest", "serve.handler", "estimate.sim"} {
		fmt.Printf("  %-18s %s\n", n, stats[n])
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			return runResult{}, err
		}
		fmt.Printf("%d spans written to %s\n", len(spans), spansPath)
	}
	return runResult{metrics: m, attempted: attempted, fails: fails}, nil
}

// openLadder offers single-scenario JSON requests open-loop through
// the in-process front for budget and records the ladder's knee and how
// late the generator sent.
func openLadder(st *inproc, ref *reference, seed int64, budget time.Duration, m metricSet, fails *failures) (int, error) {
	ld, err := newSingleLoad(ref, seed)
	if err != nil {
		return 0, err
	}
	ld.fails = fails
	ld.bind(newClient(nil), st.front.URL)
	next := 0
	best, lagP99, rungs := ladder(budget, func(rate float64, step time.Duration) openResult {
		base := next
		r := runOpen(maxConns, rate, step, func(c, i int) bool {
			_, ok := ld.send(c, base+i, nil)
			return ok
		})
		next += len(r.lat)
		return r
	})
	m.set("front.sustained_rps", best, "req/s")
	m.note("front.sustained_rps", fmt.Sprintf("p99 limit %s; %d rungs run", latencyLimit, rungs))
	m.set("bench.gen_lag_ms", lagP99, "ms")
	return next, nil
}

// rung is one ladder row.
type rung struct {
	name string
	ns   float64
}

// timePer runs fn over n items repeatedly for at least minDur and
// returns the mean ns per item.
func timePer(n int, minDur time.Duration, fn func(i int)) float64 {
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < minDur {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return float64(time.Since(t0)) / float64(calls)
}

// probeScenario is an in-envelope scenario with its names resolved and
// its expression looked up, off the clock.
type probeScenario struct {
	mach *machine.Machine
	op   machine.Op
	algs mpi.Algorithms
	expr fit.Expression
	p, m int
}

var sinkF float64

// replayLadder times each closed-form layer by direct replay on seeded
// in-envelope scenarios, from fit.Expression.Predict up to the front,
// and records the per-layer metrics.
func replayLadder(st *inproc, ref *reference, seed int64, m metricSet, fails *failures) ([]rung, error) {
	w := st.workers[0]
	var probes []probeScenario
	rng := newRand(seed, tagProbe)
	ts := allTriples()
	for i := 0; i < 8*batchSize; i++ {
		sc := inEnvelope(rng, ts)
		mach, op, algs, err := ref.resolve(sc)
		if err != nil {
			return nil, err
		}
		probes = append(probes, probeScenario{mach, op, algs, w.cal.Expression(mach, op, algs.Get(op)), sc.P, sc.M})
	}
	const minDur = 200 * time.Millisecond
	predict := timePer(len(probes), minDur, func(i int) { sinkF += probes[i].expr.Predict(probes[i].m, probes[i].p) })
	calNS := timePer(len(probes), minDur, func(i int) {
		est, _ := w.cal.Estimate(context.Background(), probes[i].mach, probes[i].op, probes[i].algs, probes[i].p, probes[i].m, measure.Fast())
		sinkF += est.Sample.Micros
	})
	m.set("fit.predict_ns", predict, "ns")
	m.set("estimate.calibrated_ns", calNS, "ns")

	// Three sets of batches the workers have not seen: one for the first
	// worker's handler without a socket, one for the same worker over
	// the socket, one through the front. Their answer caches miss as
	// they do end to end, bar the hot small-m keys.
	var sets [4]*warmLoad
	for i := range sets {
		l, err := newWarmLoad(ref, seed, tagProbe+1+uint64(i), 128)
		if err != nil {
			return nil, err
		}
		l.fails = fails
		sets[i] = l
	}
	handlerSet, socketSet, frontSet, settleSet := sets[0], sets[1], sets[2], sets[3]
	socketSet.bind(newClient(nil), w.http.URL)
	frontSet.bind(newClient(nil), st.front.URL)
	h := w.srv.Handler()
	replay := func(body []byte, ct string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		h.ServeHTTP(rec, req)
		return rec
	}
	// A first pass, untimed but counted for allocations, brings the
	// answer cache's second-chance marks (all set by the traffic phase)
	// to the steady state eviction runs in.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, body := range settleSet.bodies {
		replay(body, wire.ContentType)
	}
	runtime.ReadMemStats(&ms1)
	scns := float64(len(settleSet.bodies) * batchSize)
	m.set("serve.allocs_per_scenario", float64(ms1.Mallocs-ms0.Mallocs)/scns, "count")

	// The handler, socket and front rows interleave batch by batch, so
	// host drift and cache state weigh on all three alike.
	respBodies := make([][]byte, len(handlerSet.bodies))
	var tHandler, tSocket, tFront time.Duration
	runtime.GC()
	for b, body := range handlerSet.bodies {
		t0 := time.Now()
		rec := replay(body, wire.ContentType)
		tHandler += time.Since(t0)
		if rec.Code != http.StatusOK {
			fails.add("handler replay batch %d: status %d", b, rec.Code)
		}
		respBodies[b] = rec.Body.Bytes()
		t0 = time.Now()
		socketSet.send(0, b, nil)
		tSocket += time.Since(t0)
		t0 = time.Now()
		frontSet.send(0, b, nil)
		tFront += time.Since(t0)
	}
	handlerBin := float64(tHandler) / scns
	socketRow := float64(tSocket) / scns
	frontRow := float64(tFront) / scns
	m.set("serve.handler_ns.binary", handlerBin, "ns")

	jrng := newRand(seed, tagProbe+5)
	jbodies := make([][]byte, 64)
	for b := range jbodies {
		scns := make([]serve.Scenario, batchSize)
		for j := range scns {
			scns[j] = inEnvelope(jrng, ts)
		}
		var err error
		if jbodies[b], err = json.Marshal(scns); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	t0 := time.Now()
	for b, body := range jbodies {
		if rec := replay(body, ctJSON); rec.Code != http.StatusOK {
			fails.add("JSON handler replay batch %d: status %d", b, rec.Code)
		}
	}
	m.set("serve.handler_ns.json", float64(time.Since(t0))/float64(len(jbodies)*batchSize), "ns")

	// The wire codec alone, both frames, both directions.
	n := len(handlerSet.bodies)
	reqs, resps := make([]wire.Request, n), make([]wire.Response, n)
	decReq := timePer(n, minDur, func(i int) { _ = reqs[i].Decode(handlerSet.bodies[i]) })
	decResp := timePer(n, minDur, func(i int) { _ = resps[i].Decode(respBodies[i]) })
	var buf []byte
	encReq := timePer(n, minDur, func(i int) { buf = reqs[i].Append(buf[:0]) })
	encResp := timePer(n, minDur, func(i int) { buf = resps[i].Append(buf[:0]) })
	m.set("wire.decode_ns", (decReq+decResp)/batchSize, "ns")
	m.set("wire.encode_ns", (encReq+encResp)/batchSize, "ns")
	// What a client adds around the handler: encoding the request and
	// decoding the answer.
	wireRow := handlerBin + (encReq+decResp)/batchSize
	m.set("serve.socket_ns", socketRow-wireRow, "ns")
	m.set("ladder.wire_ns", wireRow, "ns")
	m.set("ladder.socket_ns", socketRow, "ns")
	m.set("ladder.front_ns", frontRow, "ns")
	return []rung{
		{"fit: fit.Expression.Predict", predict},
		{"estimate: Calibrated.Estimate (warm)", calNS},
		{"serve: worker handler, binary batch788", handlerBin},
		{"serve/wire: handler + client encode/decode", wireRow},
		{"socket: loopback round trip to a worker", socketRow},
		{"serve/front: loopback round trip via front", frontRow},
	}, nil
}

// frontOverhead sends the same single-scenario requests to a worker
// and through the front, alternating which goes first, traced, and
// records the median paired difference.
func frontOverhead(st *inproc, tr *tracer, seed int64, m metricSet) error {
	rng := newRand(seed, tagProbe+6)
	ts := allTriples()
	client := newClient(nil)
	var buf bytes.Buffer
	once := func(url string, body []byte) (time.Duration, error) {
		t0 := time.Now()
		rep, err := post(client, url+"/v1/estimate", ctJSON, body, nil, &buf)
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("status %d", rep.status)
		}
		return time.Since(t0), err
	}
	tr.on.Store(true)
	defer tr.on.Store(false)
	var diffs []float64
	for i := 0; i < 400; i++ {
		body, err := json.Marshal(inEnvelope(rng, ts))
		if err != nil {
			return err
		}
		urls := []string{st.workers[0].http.URL, st.front.URL}
		if i%2 == 1 {
			urls[0], urls[1] = urls[1], urls[0]
		}
		var lat [2]time.Duration
		for k, u := range urls {
			if lat[k], err = once(u, body); err != nil {
				return fmt.Errorf("front overhead probe: %w", err)
			}
		}
		direct, fronted := lat[0], lat[1]
		if i%2 == 1 {
			direct, fronted = fronted, direct
		}
		diffs = append(diffs, ms(fronted-direct))
	}
	m.set("front.overhead_ms", median(diffs), "ms")
	return nil
}

// simProbe times uncached simulations of the seed's first fallback
// pool and counts their kernel events.
func simProbe(seed int64, m metricSet) error {
	pool := fallbackPool(newRand(seed, tagFallback), allTriples())[:64]
	ref := &reference{machs: map[string]*machine.Machine{}}
	var events uint64
	var took time.Duration
	for _, sc := range pool {
		mach, op, algs, err := ref.resolve(sc)
		if err != nil {
			return err
		}
		e0 := sim.KernelEvents()
		t0 := time.Now()
		if _, err := measure.MeasureOpCtx(context.Background(), mach, op, sc.P, sc.M, measure.Fast(), algs); err != nil {
			return err
		}
		took += time.Since(t0)
		events += sim.KernelEvents() - e0
	}
	m.set("sim.events_per_scenario", float64(events)/float64(len(pool)), "count")
	m.set("sim.ns_per_event", float64(took)/float64(max(events, 1)), "ns")
	m.set("measure.op_ms", ms(took)/float64(len(pool)), "ms")
	return nil
}

// calibrationProbe builds every triple's calibration dataset without a
// memo, as a cold calibration does, and fits each with both families.
func calibrationProbe(m metricSet) {
	var build, fits time.Duration
	nFits := 0
	for _, t := range allTriples() {
		algs := mpi.DefaultAlgorithms(t.mach)
		if t.alg != "default" {
			algs = algs.With(t.op, t.alg)
		}
		lengths := paper.MessageLengths()
		if t.op == machine.OpBarrier {
			lengths = []int{0}
		}
		t0 := time.Now()
		ds := estimate.BuildDataset(t.mach, t.op, algs, estimate.DefaultCalibrationSizes, lengths, measure.Fast())
		build += time.Since(t0)
		startup, perByte := paper.StartupShape(t.op), paper.PerByteShape(t.mach.Name(), t.op)
		t0 = time.Now()
		sinkF += fit.TwoStage(ds, startup, perByte).Predict(1024, 16)
		sinkF += fit.Piecewise(ds, startup, perByte, fit.PiecewiseOptions{}).Predict(1024, 16)
		fits += time.Since(t0)
		nFits += 2
	}
	m.set("measure.calibration_s", build.Seconds(), "s")
	m.set("fit.fit_ms", ms(fits)/float64(nFits), "ms")
}
