package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The open loop treats prediction clients as independent users: request
// i is due at a fixed time whether or not earlier ones have answered.
// On a 2-core host shared with other tenants its tail latency and the
// knee of its rate ladder swing with CPU stolen by the host, so it runs
// in the traced run as a diagnostic (front.sustained_rps,
// bench.gen_lag_ms) rather than as a gated end-to-end workload.

// openResult is what one open-loop rate step measured.
type openResult struct {
	lat     latencies // from each request's due time
	lag     latencies // send time minus due time
	lastLag time.Duration
	failed  int
}

// runOpen offers requests at rate for d from conns connections: request
// i is due at start + i/rate whether or not earlier ones have answered.
// A connection that falls behind sends late, and the lateness counts in
// the request's latency. do sends request i on connection c and
// reports success.
func runOpen(conns int, rate float64, d time.Duration, do func(c, i int) bool) openResult {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var mu sync.Mutex
	res := openResult{}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat, lag latencies
			failed := 0
			lastIdx, lastLag := -1, time.Duration(0)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				due := t0.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				ok := do(c, i)
				lag = append(lag, sent.Sub(due))
				if ok {
					lat = append(lat, time.Since(due))
				} else {
					lat = append(lat, failedLatency)
					failed++
				}
				lastIdx, lastLag = i, sent.Sub(due)
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.lag = append(res.lag, lag...)
			res.failed += failed
			if lastIdx == n-1 {
				res.lastLag = lastLag
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

// Open-loop ladder shape.
const (
	latencyLimit = 20 * time.Millisecond
	// ladderStep is how long one ladder rung is offered.
	ladderStep = 250 * time.Millisecond
	// ladderSearches is how many independent searches the ladder result
	// is the median of; odd, so the median is a rung.
	ladderSearches = 7
)

// ladderRates is the fixed offered-rate ladder, in requests per second:
// 4% steps from 500.
var ladderRates = func() []float64 {
	var out []float64
	for r := 500.0; r <= 12000; r *= 1.04 {
		out = append(out, math.Round(r))
	}
	return out
}()

// meetsLimit reports whether a rung met the latency limit: no failure,
// tail latency from the due time within latencyLimit, and no growing
// backlog (its last request sent within the limit of its due time).
func meetsLimit(r openResult) bool {
	s, err := summarize(r.lat)
	return err == nil && r.failed == 0 && s.Tail <= latencyLimit && r.lastLag <= latencyLimit
}

// ladder returns the highest rung of ladderRates that meets the limit,
// as the median of ladderSearches bisections of the ladder, each given
// an equal share of budget. A bisection that runs out of time keeps the
// highest rung it saw meet the limit; one that saw none reports 0.
func ladder(budget time.Duration, run func(rate float64, step time.Duration) openResult) (best, lagP99 float64, rungs int) {
	t0 := time.Now()
	var lags latencies
	var found []float64
	for k := 1; k <= ladderSearches; k++ {
		deadline := t0.Add(budget * time.Duration(k) / ladderSearches)
		lo, hi := -1, len(ladderRates) // rung lo met the limit, rung hi did not
		for hi-lo > 1 && time.Now().Add(ladderStep).Before(deadline) {
			mid := (lo + hi) / 2
			r := run(ladderRates[mid], ladderStep)
			rungs++
			lags = append(lags, r.lag...)
			if meetsLimit(r) {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo >= 0 {
			found = append(found, ladderRates[lo])
		} else {
			found = append(found, 0)
		}
	}
	if s, err := summarize(lags); err == nil {
		lagP99 = ms(s.Tail)
	}
	return median(found), lagP99, rungs
}
