package serve

import (
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// fallbackKind classifies why a scenario fell back to the simulator —
// the bounded label set of serve_fallbacks_total (free-form reason
// strings would explode the series space).
type fallbackKind int

const (
	fbNone       fallbackKind = iota
	fbOutOfRange              // outside the calibrated (p, m) envelope
	fbUncovered               // the entry has no fit for (machine, op)
	fbVariant                 // a fixed set asked about a non-default variant
	numFallbackKinds
)

var fallbackKindNames = [numFallbackKinds]string{"", "out_of_range", "uncovered", "variant_only"}

// shedReason classifies why the admission gate refused a request — the
// label set of serve_shed_total.
type shedReason int

const (
	shedNone      shedReason = iota
	shedQueueFull            // the bounded wait queue was at budget (429)
	shedTimeout              // the request expired while queued (503)
	numShedReasons
)

var shedReasonNames = [numShedReasons]string{"", "queue_full", "timeout"}

// Deadline outcomes — the label set of serve_deadline_total, recorded
// for every request that carried a deadline (configured or header).
const (
	dlMet      = iota // answered in full within the deadline
	dlDegraded        // answered, but ≥ 1 scenario degraded to closed form
	dlExceeded        // 504: the deadline fired with no degraded answer available
	numDeadlineOutcomes
)

var deadlineOutcomeNames = [numDeadlineOutcomes]string{"met", "degraded", "exceeded"}

// reqStats is one request's outcome, filled by serveEstimate and turned
// into metric updates and an access-log line by handleEstimate.
type reqStats struct {
	status    int
	registry  string // resolved entry name; "" when none resolved
	codec     Codec  // negotiated wire codec; CodecUnknown on 415
	shed      shedReason
	scenarios int
	fallbacks int
	kinds     [numFallbackKinds]int
	bounds    int // answers carrying an expected_error
	// hadDeadline marks a request that ran under a deadline; degraded
	// counts its scenarios answered closed-form because the deadline
	// expired mid-simulation.
	hadDeadline bool
	degraded    int
	// Answer-cache verdicts per fallback scenario. With no cache
	// attached every fallback scenario is a bypass; closed-form
	// scenarios make no lookup and count nowhere.
	cacheHits, cacheMisses, cacheBypass int
}

// Metrics holds the serving layer's observability series. A nil
// *Metrics is valid and records nothing — the server's hot path then
// pays one branch and zero clock reads per request.
type Metrics struct {
	reg *obs.Registry

	reqOK, reqClientErr, reqServerErr  *obs.Counter
	scenariosClosed, scenariosFallback *obs.Counter
	fallbackKinds                      [numFallbackKinds]*obs.Counter // [fbNone] stays nil
	bounds                             *obs.Counter
	wire                               [numCodecs]*obs.Counter
	cacheHit, cacheMiss, cacheBypass   *obs.Counter
	shedKinds                          [numShedReasons]*obs.Counter // [shedNone] stays nil
	deadlines                          [numDeadlineOutcomes]*obs.Counter
	degraded                           *obs.Counter
	reloadOK, reloadErr                *obs.Counter
	inFlight                           *obs.Gauge
	queue                              *obs.Gauge
	batch                              *obs.Histogram
	stages                             [obs.NumStages]*obs.Histogram

	// byRegistry caches serve_registry_requests_total handles per entry
	// name, so the per-request path skips the registry's setup mutex.
	byRegistry sync.Map // string → *obs.Counter
}

// NewMetrics registers the serving metric series on reg and returns the
// handle bundle to assign to Server.Obs:
//
//	serve_requests_total{outcome}          ok | client_error | server_error
//	serve_registry_requests_total{registry} served requests per entry
//	serve_scenarios_total{mode}            closed_form | fallback
//	serve_fallbacks_total{reason}          out_of_range | uncovered | variant_only
//	serve_bounds_attached_total            answers carrying expected_error
//	serve_wire_requests_total{codec}       json | ndjson | binary
//	serve_answer_cache_total{result}       hit | miss | bypass (per fallback scenario)
//	serve_shed_total{reason}               queue_full | timeout (admission gate refusals)
//	serve_deadline_total{outcome}          met | degraded | exceeded (deadline-carrying requests)
//	serve_degraded_total                   scenarios answered degraded (closed form, deadline pressed)
//	serve_reloads_total{result}            ok | error (hot registry reloads)
//	serve_in_flight                        requests currently in the handler
//	serve_queue_depth                      requests waiting at the admission gate
//	serve_batch_size                       scenarios per served request
//	serve_stage_duration_ns{stage}         decode … encode (see obs.Stage)
//
// Scenario, fallback, bound, batch, and stage series update only on
// served (status-200) requests, so their totals are mutually consistent
// with serve_requests_total{outcome="ok"}.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{reg: reg}
	req := func(outcome string) *obs.Counter {
		return reg.Counter("serve_requests_total",
			"estimate requests by outcome",
			obs.Label{Key: "outcome", Value: outcome})
	}
	m.reqOK, m.reqClientErr, m.reqServerErr = req("ok"), req("client_error"), req("server_error")
	mode := func(mode string) *obs.Counter {
		return reg.Counter("serve_scenarios_total",
			"served scenarios by answering mode",
			obs.Label{Key: "mode", Value: mode})
	}
	m.scenariosClosed, m.scenariosFallback = mode("closed_form"), mode("fallback")
	for k := fbNone + 1; k < numFallbackKinds; k++ {
		m.fallbackKinds[k] = reg.Counter("serve_fallbacks_total",
			"scenarios answered by the exact simulator, by reason",
			obs.Label{Key: "reason", Value: fallbackKindNames[k]})
	}
	m.bounds = reg.Counter("serve_bounds_attached_total",
		"served answers carrying a validated expected_error bound")
	for c := Codec(0); c < numCodecs; c++ {
		m.wire[c] = reg.Counter("serve_wire_requests_total",
			"estimate requests by negotiated wire codec",
			obs.Label{Key: "codec", Value: codecNames[c]})
	}
	cache := func(result string) *obs.Counter {
		return reg.Counter("serve_answer_cache_total",
			"fallback-simulation answer-cache lookups by result (bypass: no cache attached)",
			obs.Label{Key: "result", Value: result})
	}
	m.cacheHit, m.cacheMiss, m.cacheBypass = cache("hit"), cache("miss"), cache("bypass")
	for sr := shedNone + 1; sr < numShedReasons; sr++ {
		m.shedKinds[sr] = reg.Counter("serve_shed_total",
			"requests refused at the admission gate, by reason",
			obs.Label{Key: "reason", Value: shedReasonNames[sr]})
	}
	for d := 0; d < numDeadlineOutcomes; d++ {
		m.deadlines[d] = reg.Counter("serve_deadline_total",
			"deadline-carrying requests by outcome",
			obs.Label{Key: "outcome", Value: deadlineOutcomeNames[d]})
	}
	m.degraded = reg.Counter("serve_degraded_total",
		"scenarios answered degraded: closed form because the deadline expired mid-simulation")
	reload := func(result string) *obs.Counter {
		return reg.Counter("serve_reloads_total",
			"hot registry reloads by result",
			obs.Label{Key: "result", Value: result})
	}
	m.reloadOK, m.reloadErr = reload("ok"), reload("error")
	m.inFlight = reg.Gauge("serve_in_flight",
		"estimate requests currently being handled")
	m.queue = reg.Gauge("serve_queue_depth",
		"requests waiting at the admission gate")
	m.batch = reg.Histogram("serve_batch_size",
		"scenarios per served estimate request")
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		m.stages[st] = reg.Histogram("serve_stage_duration_ns",
			"per-request pipeline stage time in nanoseconds (estimate and bounds sum worker time)",
			obs.Label{Key: "stage", Value: st.String()})
	}
	return m
}

// Registry returns the underlying metric registry (nil-safe) — what
// /metrics and /debug/vars export, and where cmd wiring adds series
// from other layers.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// begin/end bracket one in-flight request. Nil-safe.
func (m *Metrics) begin() {
	if m != nil {
		m.inFlight.Add(1)
	}
}

func (m *Metrics) end() {
	if m != nil {
		m.inFlight.Add(-1)
	}
}

// queueDepth returns the admission-queue gauge (nil when unmetered —
// obs gauges are nil-safe, so the gate adds into it unconditionally).
func (m *Metrics) queueDepth() *obs.Gauge {
	if m == nil {
		return nil
	}
	return m.queue
}

// reloaded records one hot registry reload. Nil-safe.
func (m *Metrics) reloaded(ok bool) {
	if m == nil {
		return
	}
	if ok {
		m.reloadOK.Inc()
	} else {
		m.reloadErr.Inc()
	}
}

// panicked records a request that died in a handler panic (recovered by
// the middleware into a 500). Nil-safe.
func (m *Metrics) panicked() {
	if m != nil {
		m.reqServerErr.Inc()
	}
}

// observe folds one finished request into the series. Stage histograms
// and scenario-level counters update only for served requests, keeping
// them consistent with the ok outcome count.
func (m *Metrics) observe(st reqStats, tr *obs.Trace) {
	if m == nil {
		return
	}
	switch {
	case st.status < 400:
		m.reqOK.Inc()
	case st.status < 500:
		m.reqClientErr.Inc()
	default:
		m.reqServerErr.Inc()
	}
	if st.codec >= 0 {
		m.wire[st.codec].Inc()
	}
	if st.shed != shedNone {
		m.shedKinds[st.shed].Inc()
	}
	if st.hadDeadline {
		switch {
		case st.status == http.StatusGatewayTimeout:
			m.deadlines[dlExceeded].Inc()
		case st.status == http.StatusOK && st.degraded > 0:
			m.deadlines[dlDegraded].Inc()
		case st.status == http.StatusOK:
			m.deadlines[dlMet].Inc()
		}
	}
	if st.status != http.StatusOK {
		return
	}
	if st.degraded > 0 {
		m.degraded.Add(uint64(st.degraded))
	}
	if st.cacheHits > 0 {
		m.cacheHit.Add(uint64(st.cacheHits))
	}
	if st.cacheMisses > 0 {
		m.cacheMiss.Add(uint64(st.cacheMisses))
	}
	if st.cacheBypass > 0 {
		m.cacheBypass.Add(uint64(st.cacheBypass))
	}
	if st.registry != "" {
		m.registryCounter(st.registry).Inc()
	}
	m.batch.Observe(uint64(st.scenarios))
	if n := st.scenarios - st.fallbacks; n > 0 {
		m.scenariosClosed.Add(uint64(n))
	}
	if st.fallbacks > 0 {
		m.scenariosFallback.Add(uint64(st.fallbacks))
		for k := fbNone + 1; k < numFallbackKinds; k++ {
			if st.kinds[k] > 0 {
				m.fallbackKinds[k].Add(uint64(st.kinds[k]))
			}
		}
	}
	if st.bounds > 0 {
		m.bounds.Add(uint64(st.bounds))
	}
	if tr != nil {
		for stage := obs.Stage(0); stage < obs.NumStages; stage++ {
			m.stages[stage].Observe(uint64(tr.NS(stage)))
		}
	}
}

// registryCounter returns the served-request counter for one entry
// name, registering it on first use.
func (m *Metrics) registryCounter(name string) *obs.Counter {
	if c, ok := m.byRegistry.Load(name); ok {
		return c.(*obs.Counter)
	}
	c := m.reg.Counter("serve_registry_requests_total",
		"served requests per registry entry",
		obs.Label{Key: "registry", Value: name})
	m.byRegistry.Store(name, c)
	return c
}

// Totals reports the lifetime request, scenario, and fallback counts —
// the shutdown drain's final snapshot. Nil-safe.
func (m *Metrics) Totals() (requests, scenarios, fallbacks uint64) {
	if m == nil {
		return 0, 0, 0
	}
	requests = m.reqOK.Value() + m.reqClientErr.Value() + m.reqServerErr.Value()
	scenarios = m.scenariosClosed.Value() + m.scenariosFallback.Value()
	return requests, scenarios, m.scenariosFallback.Value()
}

// handleMetrics answers GET /metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Obs.Registry().WritePrometheus(w)
}

// handleVars answers GET /debug/vars with an expvar-style JSON object.
// The server publishes into its own metric registry rather than the
// process-global expvar namespace, so many Server instances (tests, one
// process hosting several) never collide on Publish.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	blob, err := json.MarshalIndent(map[string]any{"obs": s.Obs.Registry().Snapshot()}, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(blob, '\n'))
}
