package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/machine"
)

// AnswerCache is the service's cache of fallback simulations: the
// exact simulator's result for scenarios outside the serving entry's
// calibrated envelope. Closed-form answers never touch it — evaluating
// a fitted expression costs about what a lookup would.
//
// A key holds everything the simulation depends on: the server's
// fallback identity (simulator name, provenance, and methodology — see
// Server.simIdentity), the machine's calibration fingerprint, and the
// resolved scenario. The registry entry is not part of it: the answer's
// entry-dependent fallback_reason is rebuilt per request, so entries
// that fall back on the same scenario share one simulation, and a
// recalibration or hot reload leaves every cached simulation valid.
//
// The cache is sharded (16 ways) with single-flight misses: concurrent
// requests for one cold key run the simulation once and share the
// result, the same contract estimate.SampleMemo gives the calibration
// grid. Capacity is bounded; eviction is a second-chance (CLOCK-style)
// sweep per shard, so sustained hot keys survive churn.
//
// A nil *AnswerCache is valid and caches nothing (every fallback
// scenario reports "bypass").
type AnswerCache struct {
	shards   [acShards]acShard
	perShard int
}

const acShards = 16

// acKey identifies one cached simulation. alg is the resolved name
// ("default" normalized), so the alias and its eponymous variant cache
// separately — same behavior as the serving path, which resolves before
// answering. The fingerprint doubles as the machine identity: it hashes
// the full parameter set, so no separate name is needed.
type acKey struct {
	sim  string // Server.simIdentity
	fp   string // estimate.CachedFingerprint of the machine
	op   machine.Op
	alg  string
	p, m int
}

// simResult is what an Answer takes from an estimate — for a fallback
// scenario, the value the answer cache stores.
type simResult struct {
	micros  float64
	backend string
}

// acEntry is one cached (or in-flight) simulation; once gives cold keys
// their single flight, done marks the result as materialized (eviction
// never removes an entry a goroutine is still computing into). err is
// the simulation's failure, shared by the flight's waiters; errored
// entries are forgotten right after the flight (see Server.simulate) so
// retries recompute.
type acEntry struct {
	once sync.Once
	done atomic.Bool
	used atomic.Bool
	res  simResult
	err  error
}

type acShard struct {
	mu sync.RWMutex
	m  map[acKey]*acEntry
}

// NewAnswerCache returns a cache bounded at roughly size simulations
// (rounded up to the shard count), or nil — caching disabled — when
// size ≤ 0.
func NewAnswerCache(size int) *AnswerCache {
	if size <= 0 {
		return nil
	}
	c := &AnswerCache{perShard: (size + acShards - 1) / acShards}
	for i := range c.shards {
		c.shards[i].m = make(map[acKey]*acEntry)
	}
	return c
}

// Len returns the number of cached (including in-flight) simulations.
func (c *AnswerCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Cap returns the configured capacity in simulations (0 for nil).
func (c *AnswerCache) Cap() int {
	if c == nil {
		return 0
	}
	return c.perShard * acShards
}

// get returns the entry for k, creating an in-flight one when absent.
// created reports whether this caller inserted it — the accounting
// miss; callers that found an entry (finished or in flight) are hits.
// Either way the caller must pass its compute fn through e.once.Do and
// read e.res after, which is what serializes the single flight.
func (c *AnswerCache) get(k acKey) (e *acEntry, created bool) {
	sh := &c.shards[c.shard(&k)]
	sh.mu.RLock()
	e, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		// The second-chance mark only needs to become true; checking
		// first keeps steady hits from dirtying the cache line.
		if !e.used.Load() {
			e.used.Store(true)
		}
		return e, false
	}
	sh.mu.Lock()
	if e, ok = sh.m[k]; ok {
		sh.mu.Unlock()
		if !e.used.Load() {
			e.used.Store(true)
		}
		return e, false
	}
	if len(sh.m) >= c.perShard {
		sh.evictLocked()
	}
	e = &acEntry{}
	sh.m[k] = e
	sh.mu.Unlock()
	return e, true
}

// forget removes k's entry if it is still e — pointer-compared, so a
// retry that already replaced the slot is left alone. Used to discard
// errored simulations after their single flight.
func (c *AnswerCache) forget(k acKey, e *acEntry) {
	sh := &c.shards[c.shard(&k)]
	sh.mu.Lock()
	if sh.m[k] == e {
		delete(sh.m, k)
	}
	sh.mu.Unlock()
}

// shard hashes the key's scenario coordinates (FNV-1a). The sim
// identity is constant per server and the fingerprint tracks the few
// machine presets, so neither is worth hashing here — op, alg, p, m
// spread the grid fine across 16 shards.
func (c *AnswerCache) shard(k *acKey) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(k.op); i++ {
		h = (h ^ uint32(k.op[i])) * prime
	}
	for i := 0; i < len(k.alg); i++ {
		h = (h ^ uint32(k.alg[i])) * prime
	}
	h = (h ^ uint32(k.p)) * prime
	h = (h ^ uint32(k.m)) * prime
	return h % acShards
}

// evictLocked frees one slot: a second-chance sweep in map order
// (randomized by Go) that skips in-flight entries, clears used marks
// as it passes, and removes the first finished entry not referenced
// since the last sweep — falling back to any finished entry when the
// whole shard is recently used.
func (sh *acShard) evictLocked() {
	var fallback acKey
	haveFallback := false
	for k, e := range sh.m {
		if !e.done.Load() {
			continue
		}
		if e.used.Load() {
			e.used.Store(false)
			if !haveFallback {
				fallback, haveFallback = k, true
			}
			continue
		}
		delete(sh.m, k)
		return
	}
	if haveFallback {
		delete(sh.m, fallback)
	}
	// Every entry in flight: let the shard run one over; the next
	// insert's sweep will find finished entries to reclaim.
}
