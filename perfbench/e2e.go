package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/wire"
)

const (
	ctJSON = "application/json"

	// setups is how many times a run starts the server;
	// setup_s is their median.
	setups = 3
	// heldOutPoints sizes pred_err_p90's held-out set.
	heldOutPoints = 12 * 79
)

// spec describes one workload: how its requests are generated and
// checked. Every workload is a closed loop of maxConns clients sending
// back to back to one `serve -warm` process.
type spec struct {
	// prepare generates the seeded request stream and its expected
	// answers, off the clock.
	prepare func(ref *reference, seed int64) (load, error)
}

var specs = map[string]spec{
	"warm-batch-wire": {prepare: prepareWarmBatches},
	"fallback-zipf":   {prepare: prepareFallback},
}

// load is a workload's request stream bound to a target.
type load interface {
	// send issues request i from client c (0 ≤ c < maxConns), checks
	// the answer, and returns the scenarios answered and whether the
	// request succeeded. hdr carries extra request headers (may be nil).
	send(c, i int, hdr http.Header) (int, bool)
	// bind points the stream at a serving URL through client.
	bind(client *http.Client, url string)
	// finish runs the off-the-clock checks after the timed phase.
	finish(ref *reference, seed int64) error
	// failureLog is where send and finish record failures.
	failureLog() *failures
}

// target is the common bind state of every load.
type target struct {
	client *http.Client
	url    string
	bufs   [maxConns]bytes.Buffer
	fails  *failures
}

func (t *target) failureLog() *failures { return t.fails }

func (t *target) bind(client *http.Client, url string) {
	t.client, t.url = client, url+"/v1/estimate"
}

// do posts body from client c and returns the answer body on 200.
func (t *target) do(c, i int, ct string, body []byte, hdr http.Header) ([]byte, bool) {
	rep, err := post(t.client, t.url, ct, body, hdr, &t.bufs[c])
	if err != nil {
		t.fails.add("request %d: %v", i, err)
		return nil, false
	}
	if rep.status != http.StatusOK {
		t.fails.add("request %d: status %d: %.200s", i, rep.status, rep.body)
		return nil, false
	}
	return rep.body, true
}

// wireBody encodes scns as one binary-wire request frame.
func wireBody(scns []serve.Scenario) []byte {
	req := wire.Request{}
	index := map[string]uint32{}
	intern := func(s string) uint32 {
		i, ok := index[s]
		if !ok {
			i = uint32(len(req.Table))
			index[s] = i
			req.Table = append(req.Table, s)
		}
		return i
	}
	for _, sc := range scns {
		req.Records = append(req.Records, wire.Record{
			Mach: intern(sc.Machine), Op: intern(sc.Op), Alg: intern(sc.Algorithm), P: sc.P, M: sc.M,
		})
	}
	return req.Append(nil)
}

// ---- warm-batch-wire

const (
	// batchSize is the warm-batch-wire batch: the batch the repository's
	// wire benchmarks use.
	batchSize = 788
	// wireBatches is how many distinct batches warm-batch-wire cycles
	// through: 4096 × 788 ≈ 3.2M scenarios, twelve times what the 256Ki
	// answer cache holds, so the cache misses and evicts.
	wireBatches = 4096
)

// warmLoad cycles binary batches of in-envelope scenarios.
type warmLoad struct {
	target
	bodies [][]byte
	wants  [][]float64
	resps  [maxConns]wire.Response
}

func prepareWarmBatches(ref *reference, seed int64) (load, error) {
	return newWarmLoad(ref, seed, tagBatches, wireBatches)
}

// newWarmLoad generates n batches of in-envelope scenarios, batch b
// from its own stream of the seed, with their reference answers.
func newWarmLoad(ref *reference, seed int64, tag uint64, n int) (*warmLoad, error) {
	l := &warmLoad{target: target{fails: &failures{}}, bodies: make([][]byte, n), wants: make([][]float64, n)}
	ts := allTriples()
	errs := make([]error, maxConns)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scns := make([]serve.Scenario, batchSize)
			for b := w; b < n; b += maxConns {
				rng := newRand(subSeed(seed, tag), uint64(b))
				wants := make([]float64, batchSize)
				for j := range scns {
					scns[j] = inEnvelope(rng, ts)
					want, err := ref.expect(scns[j])
					if err == nil && want.fallback {
						err = fmt.Errorf("generated scenario %+v is outside the envelope", scns[j])
					}
					if err != nil {
						errs[w] = err
						return
					}
					wants[j] = want.micros
				}
				l.bodies[b], l.wants[b] = wireBody(scns), wants
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *warmLoad) send(c, i int, hdr http.Header) (int, bool) {
	b := i % len(l.bodies)
	body, ok := l.do(c, i, wire.ContentType, l.bodies[b], hdr)
	if !ok {
		return 0, false
	}
	resp := &l.resps[c]
	if err := resp.Decode(body); err != nil || len(resp.Answers) != batchSize {
		l.fails.add("request %d: undecodable answer (%d answers, error %v)", i, len(resp.Answers), err)
		return 0, false
	}
	for j, a := range resp.Answers {
		if err := checkAnswer(expect{micros: l.wants[b][j]}, a.Micros, a.Fallback, a.FallbackReason); err != nil {
			l.fails.add("request %d (batch %d) scenario %d: %v", i, b, j, err)
			return 0, false
		}
	}
	return batchSize, true
}

func (l *warmLoad) finish(*reference, int64) error { return nil }

// ---- fallback-zipf

// Fallback stream shape: each pass draws fbDrawsPerPass Zipf scenarios
// from its own fresh pool and sends them fbBatch to a request, so the
// simulator keeps working all run long instead of only until one pool
// is cached.
const (
	fbBatch        = 4
	fbDrawsPerPass = 8 * 316
)

// fallbackLoad sends JSON batches drawn Zipf from per-pass pools of
// out-of-envelope scenarios.
type fallbackLoad struct {
	target
	ref  *reference
	seed int64

	mu     sync.Mutex
	reqs   [][]serve.Scenario
	bodies [][]byte
	// seen is every served fallback answer, for repeat consistency and
	// the sampled re-simulation.
	seen map[serve.Scenario]float64
}

func prepareFallback(ref *reference, seed int64) (load, error) {
	l := &fallbackLoad{target: target{fails: &failures{}}, ref: ref, seed: seed, seen: map[serve.Scenario]float64{}}
	l.request(0)
	return l, nil
}

// request returns request i's scenarios and JSON body, generating
// passes as the run consumes them.
func (l *fallbackLoad) request(i int) ([]serve.Scenario, []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i >= len(l.reqs) {
		pass := uint64(len(l.reqs) / (fbDrawsPerPass / fbBatch))
		rng := newRand(l.seed, tagFallback|pass<<8)
		pool := fallbackPool(rng, allTriples())
		draws := zipfDraws(rng, len(pool), fbDrawsPerPass)
		for k := 0; k < len(draws); k += fbBatch {
			scns := make([]serve.Scenario, fbBatch)
			for j := range scns {
				scns[j] = pool[draws[k+j]]
			}
			body, err := json.Marshal(scns)
			if err != nil {
				panic(err) // plain structs always marshal
			}
			l.reqs = append(l.reqs, scns)
			l.bodies = append(l.bodies, body)
		}
	}
	return l.reqs[i], l.bodies[i]
}

func (l *fallbackLoad) send(c, i int, hdr http.Header) (int, bool) {
	scns, body := l.request(i)
	raw, ok := l.do(c, i, ctJSON, body, hdr)
	if !ok {
		return 0, false
	}
	var resp serve.Response
	if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Answers) != len(scns) {
		l.fails.add("request %d: undecodable answer (%d answers, error %v)", i, len(resp.Answers), err)
		return 0, false
	}
	for j, a := range resp.Answers {
		want, err := l.ref.expect(scns[j])
		if err == nil {
			err = checkAnswer(want, a.Micros, a.Fallback, a.FallbackReason)
		}
		if err == nil && a.Scenario != scns[j] {
			err = fmt.Errorf("echoes %+v", a.Scenario)
		}
		if err == nil {
			l.mu.Lock()
			if prev, ok := l.seen[scns[j]]; ok && math.Float64bits(prev) != math.Float64bits(a.Micros) {
				err = fmt.Errorf("micros %v, earlier answer %v", a.Micros, prev)
			} else {
				l.seen[scns[j]] = a.Micros
			}
			l.mu.Unlock()
		}
		if err != nil {
			l.fails.add("request %d scenario %+v: %v", i, scns[j], err)
			return 0, false
		}
	}
	return len(scns), true
}

// fallbackChecks is how many served fallback answers are re-simulated
// in-process per run.
const fallbackChecks = 24

// finish re-simulates a seeded sample of the served fallback answers
// in-process and compares them bit for bit.
func (l *fallbackLoad) finish(ref *reference, seed int64) error {
	l.mu.Lock()
	keys := make([]serve.Scenario, 0, len(l.seen))
	for sc := range l.seen {
		keys = append(keys, sc)
	}
	l.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
	rng := newRand(seed, tagFallbackCheck)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, sc := range keys[:min(fallbackChecks, len(keys))] {
		want, err := ref.simulate(sc)
		if err != nil {
			return err
		}
		if got := l.seen[sc]; math.Float64bits(got) != math.Float64bits(want) {
			l.fails.add("fallback %+v: served %v, simulated %v", sc, got, want)
		}
	}
	return nil
}

// ---- single scenarios (the traced run's front probes)

// singlesPool is how many distinct single-scenario requests the traced
// run's open-loop ladder cycles through.
const singlesPool = 1 << 16

// singleLoad sends single in-envelope scenarios as JSON.
type singleLoad struct {
	target
	scns   []serve.Scenario
	bodies [][]byte
	wants  []float64
}

func newSingleLoad(ref *reference, seed int64) (*singleLoad, error) {
	rng := newRand(seed, tagSingles)
	ts := allTriples()
	l := &singleLoad{
		target: target{fails: &failures{}},
		scns:   make([]serve.Scenario, singlesPool),
		bodies: make([][]byte, singlesPool),
		wants:  make([]float64, singlesPool),
	}
	for i := range l.scns {
		l.scns[i] = inEnvelope(rng, ts)
		want, err := ref.expect(l.scns[i])
		if err != nil {
			return nil, err
		}
		l.wants[i] = want.micros
		if l.bodies[i], err = json.Marshal(l.scns[i]); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *singleLoad) send(c, i int, hdr http.Header) (int, bool) {
	k := i % singlesPool
	body, ok := l.do(c, i, ctJSON, l.bodies[k], hdr)
	if !ok {
		return 0, false
	}
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Answers) != 1 {
		l.fails.add("request %d: undecodable answer (%v)", i, err)
		return 0, false
	}
	a := resp.Answers[0]
	if err := checkAnswer(expect{micros: l.wants[k]}, a.Micros, a.Fallback, a.FallbackReason); err != nil || a.Scenario != l.scns[k] {
		l.fails.add("request %d %+v: answered %+v (%v)", i, l.scns[k], a, err)
		return 0, false
	}
	return 1, true
}

func (l *singleLoad) finish(*reference, int64) error { return nil }

// ---- the end-to-end run

// runResult is one run's metrics and accounting.
type runResult struct {
	metrics   metricSet
	attempted int
	fails     *failures
}

// runE2E runs one workload end to end against the real binaries.
func runE2E(name, bin string, seed int64, d time.Duration) (runResult, error) {
	sp := specs[name]
	ref, _, err := newReference()
	if err != nil {
		return runResult{}, err
	}
	ld, err := sp.prepare(ref, seed)
	if err != nil {
		return runResult{}, err
	}
	srv, setup, err := setUp(bin)
	if err != nil {
		return runResult{}, err
	}
	defer procs.stop(srv)
	m := metricSet{}
	m.set("setup_s", setup, "s")
	ld.bind(newClient(nil), srv.url)
	attempted, err := closedMetrics(m, ld, d)
	if err != nil {
		return runResult{}, err
	}
	rss, err := peakRSSMB(srv)
	if err != nil {
		return runResult{}, err
	}
	m.set("server_rss_mb", rss, "MB")
	fails := ld.failureLog()
	if err := ld.finish(ref, seed); err != nil {
		return runResult{}, err
	}
	e, err := predictionError(srv.url, ref, seed, fails)
	if err != nil {
		return runResult{}, err
	}
	m.set("pred_err_p90", e, "ratio")
	return runResult{metrics: m, attempted: attempted, fails: fails}, nil
}

// setUp starts the server `setups` times, keeping the last one, and
// returns it with the median set-up time in seconds.
func setUp(bin string) (*child, float64, error) {
	var times []float64
	var srv *child
	for i := 0; i < setups; i++ {
		if srv != nil {
			procs.stop(srv)
		}
		c, took, err := startServer(bin)
		if err != nil {
			return nil, 0, err
		}
		srv = c
		times = append(times, took.Seconds())
	}
	return srv, median(times), nil
}

// closedMetrics runs the closed loop for d and records its metrics.
func closedMetrics(m metricSet, ld load, d time.Duration) (int, error) {
	res := runClosed(maxConns, d, func(c, i int) (int, bool) { return ld.send(c, i, nil) })
	s, err := summarizeRun(res.lat, res.at)
	if err != nil {
		return 0, err
	}
	m.set("latency_p50_ms", ms(s.P50), "ms")
	m.set("latency_p99_ms", ms(s.Tail), "ms")
	m.note("latency_p99_ms", fmt.Sprintf("median of %d slices' p%s; %d samples", tailSlices, pctLabel(s.TailPct), s.N))
	m.set("scenarios_per_s", float64(res.scenarios)/res.wall.Seconds(), "1/s")
	return res.requests, nil
}

// predictionError sends the seeded held-out set to url as one binary
// batch, off the clock, and returns the p90 of |served − simulated| /
// simulated. The served answers must also match the reference.
func predictionError(url string, ref *reference, seed int64, fails *failures) (float64, error) {
	pts := heldOut(newRand(seed, tagHeldOut), allTriples(), heldOutPoints)
	var buf bytes.Buffer
	rep, err := post(newClient(nil), url+"/v1/estimate", wire.ContentType, wireBody(pts), nil, &buf)
	if err != nil {
		return 0, fmt.Errorf("held-out batch: %w", err)
	}
	if rep.status != http.StatusOK {
		return 0, fmt.Errorf("held-out batch: status %d: %s", rep.status, rep.body)
	}
	var resp wire.Response
	if err := resp.Decode(rep.body); err != nil {
		return 0, fmt.Errorf("held-out batch: %w", err)
	}
	if len(resp.Answers) != len(pts) {
		return 0, fmt.Errorf("held-out batch: %d answers for %d scenarios", len(resp.Answers), len(pts))
	}
	errs := make([]float64, len(pts))
	simErrs := make([]error, maxConns)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pts); i += maxConns {
				a := resp.Answers[i]
				want, err := ref.expect(pts[i])
				if err != nil {
					simErrs[w] = err
					return
				}
				if err := checkAnswer(want, a.Micros, a.Fallback, a.FallbackReason); err != nil {
					fails.add("held-out %+v: %v", pts[i], err)
				}
				sim, err := ref.simulate(pts[i])
				if err != nil {
					simErrs[w] = err
					return
				}
				errs[i] = math.Abs(a.Micros-sim) / sim
			}
		}(w)
	}
	wg.Wait()
	for _, err := range simErrs {
		if err != nil {
			return 0, err
		}
	}
	return quantile(errs, 0.90), nil
}
