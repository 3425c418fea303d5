package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// countingBackend counts Estimate calls — the probe that proves the
// answer cache's single flight actually deduplicates simulations.
type countingBackend struct {
	inner estimate.Backend
	calls atomic.Int64
}

func (b *countingBackend) Name() string       { return b.inner.Name() }
func (b *countingBackend) Provenance() string { return b.inner.Provenance() }
func (b *countingBackend) Estimate(ctx context.Context, mach *machine.Machine, op machine.Op, algs mpi.Algorithms, p, m int, cfg measure.Config) (estimate.Estimate, error) {
	b.calls.Add(1)
	return b.inner.Estimate(ctx, mach, op, algs, p, m, cfg)
}

// cachedServer is testServer plus a bounded answer cache and metrics.
func cachedServer(t *testing.T, size int) *Server {
	t.Helper()
	s := testServer(t)
	s.Cache = NewAnswerCache(size)
	instrument(s)
	return s
}

func cacheHeader(t *testing.T, s *Server, body, rawQuery string) string {
	t.Helper()
	rec := post(t, s, body, rawQuery)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Header().Get("X-Estimate-Cache")
}

// cacheTotals reads serve_answer_cache_total by result.
func cacheTotals(t *testing.T, s *Server) (hit, miss, bypass uint64) {
	t.Helper()
	vals := promValues(t, get(t, s, "/metrics").Body.String())
	return vals[`serve_answer_cache_total{result="hit"}`],
		vals[`serve_answer_cache_total{result="miss"}`],
		vals[`serve_answer_cache_total{result="bypass"}`]
}

// TestAnswerCacheHitMissHeader: cold fallback scenarios report miss,
// warm ones hit, and a request that needs no simulation — or a server
// without a cache — reports bypass. serve_answer_cache_total counts
// fallback scenarios only.
func TestAnswerCacheHitMissHeader(t *testing.T) {
	s := cachedServer(t, 1024)
	// testServer's calibrated envelope ends at m = 1024.
	batch := `[{"machine":"T3D","op":"broadcast","p":8,"m":4096},
	           {"machine":"T3D","op":"broadcast","p":8,"m":65536}]`
	if got := cacheHeader(t, s, batch, ""); got != "miss" {
		t.Fatalf("cold batch X-Estimate-Cache %q, want miss", got)
	}
	if got := cacheHeader(t, s, batch, ""); got != "hit" {
		t.Fatalf("warm batch X-Estimate-Cache %q, want hit", got)
	}
	// A batch mixing a warm fallback with a cold one is still a miss.
	mixed := `[{"machine":"T3D","op":"broadcast","p":8,"m":4096},
	           {"machine":"T3D","op":"broadcast","p":4,"m":4096}]`
	if got := cacheHeader(t, s, mixed, ""); got != "miss" {
		t.Fatalf("mixed batch X-Estimate-Cache %q, want miss", got)
	}
	// Closed-form scenarios make no lookup: beside a warm fallback the
	// verdict stays hit, and on their own it is bypass.
	withClosed := `[{"machine":"T3D","op":"broadcast","p":8,"m":16},
	                {"machine":"T3D","op":"broadcast","p":8,"m":4096}]`
	if got := cacheHeader(t, s, withClosed, ""); got != "hit" {
		t.Fatalf("closed-form + warm fallback X-Estimate-Cache %q, want hit", got)
	}
	closed := `[{"machine":"T3D","op":"broadcast","p":8,"m":16},
	            {"machine":"T3D","op":"broadcast","p":4,"m":1024}]`
	lenBefore := s.Cache.Len()
	if got := cacheHeader(t, s, closed, ""); got != "bypass" {
		t.Fatalf("closed-form batch X-Estimate-Cache %q, want bypass", got)
	}
	if n := s.Cache.Len(); n != lenBefore {
		t.Fatalf("closed-form batch changed Cache.Len() from %d to %d", lenBefore, n)
	}
	if hit, miss, bypass := cacheTotals(t, s); hit != 4 || miss != 3 || bypass != 0 {
		// hit: 2 warm + 1 warm in mixed + 1 beside closed form;
		// miss: 2 cold + 1 new in mixed.
		t.Errorf("cache totals hit=%d miss=%d bypass=%d, want 4, 3, 0", hit, miss, bypass)
	}

	noCache := testServer(t)
	instrument(noCache)
	if got := cacheHeader(t, noCache, batch, ""); got != "bypass" {
		t.Fatalf("cacheless X-Estimate-Cache %q, want bypass", got)
	}
	if got := cacheHeader(t, noCache, closed, ""); got != "bypass" {
		t.Fatalf("cacheless closed-form X-Estimate-Cache %q, want bypass", got)
	}
	if hit, miss, bypass := cacheTotals(t, noCache); hit != 0 || miss != 0 || bypass != 2 {
		t.Errorf("cacheless totals hit=%d miss=%d bypass=%d, want 0, 0, 2", hit, miss, bypass)
	}
}

// TestAnswerCacheIdenticalAnswers: cached answers are the same bytes as
// computed ones — the cache is invisible except for speed.
func TestAnswerCacheIdenticalAnswers(t *testing.T) {
	s := cachedServer(t, 1024)
	body := `[{"machine":"T3D","op":"broadcast","p":8,"m":16},
	          {"machine":"T3D","op":"broadcast","p":8,"m":65536},
	          {"machine":"SP2","op":"allgather","p":8,"m":64}]`
	for _, registry := range []string{"", "registry=paper"} {
		cold := post(t, s, body, registry).Body.String()
		warm := post(t, s, body, registry).Body.String()
		if cold != warm {
			t.Fatalf("%q: cached response differs:\n%s\nvs\n%s", registry, cold, warm)
		}
		// And matches the cacheless server's bytes exactly.
		plain := post(t, testServer(t), body, registry).Body.String()
		if cold != plain {
			t.Fatalf("%q: cached response differs from uncached:\n%s\nvs\n%s", registry, cold, plain)
		}
	}
}

// TestAnswerCacheSingleFlight: many concurrent requests for one cold
// fallback scenario simulate it exactly once and produce exact hit/miss
// totals — the concurrency contract the race gate runs under -race.
func TestAnswerCacheSingleFlight(t *testing.T) {
	s := cachedServer(t, 64)
	counting := &countingBackend{inner: estimate.Sim{}}
	s.Sim = counting

	const clients = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := post(t, s, outOfRange, "")
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String()))
			}
		}()
	}
	wg.Wait()

	if calls := counting.calls.Load(); calls != 1 {
		t.Fatalf("simulator ran %d times for one scenario, want 1 (single flight)", calls)
	}
	if hit, miss, _ := cacheTotals(t, s); miss != 1 || hit != clients-1 {
		t.Errorf("cache totals hit=%d miss=%d, want exactly %d, 1", hit, miss, clients-1)
	}
}

// TestAnswerCacheEviction: the cache never exceeds its configured
// capacity, and evicted scenarios simply resimulate as misses.
func TestAnswerCacheEviction(t *testing.T) {
	s := cachedServer(t, acShards) // one simulation per shard
	if s.Cache.Cap() != acShards {
		t.Fatalf("Cap() = %d, want %d", s.Cache.Cap(), acShards)
	}
	for i := 0; i < 4*acShards; i++ {
		body := fmt.Sprintf(`{"machine":"T3D","op":"broadcast","p":8,"m":%d}`, 2048+i)
		if rec := post(t, s, body, ""); rec.Code != http.StatusOK {
			t.Fatalf("m=%d: status %d: %s", 2048+i, rec.Code, rec.Body.String())
		}
		if n := s.Cache.Len(); n > s.Cache.Cap() {
			t.Fatalf("after %d scenarios: Len() = %d exceeds Cap() = %d", i+1, n, s.Cache.Cap())
		}
	}
	if s.Cache.Len() == 0 {
		t.Fatal("cache empty after traffic")
	}
}

// TestAnswerCacheSkipsClosedForm: the whole 788-scenario default grid
// is inside refit-default's envelope, so serving it never reads or
// writes the answer cache.
func TestAnswerCacheSkipsClosedForm(t *testing.T) {
	if raceEnabled {
		t.Skip("calibrating the full default grid is too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("full default grid in -short mode")
	}
	scns, err := sweep.Spec{
		Algorithms: sweep.AllAlgorithms(machine.Ops),
		Sizes:      estimate.DefaultCalibrationSizes,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scns) != 788 {
		t.Fatalf("default grid expands to %d scenarios, want 788", len(scns))
	}
	request := make([]Scenario, len(scns))
	for i, sc := range scns {
		request[i] = Scenario{Machine: sc.Machine, Op: string(sc.Op), Algorithm: sc.Algorithm, P: sc.P, M: sc.M}
	}
	body, err := json.Marshal(request)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{
		Registry: estimate.StandardRegistry(estimate.RegistryConfig{Config: tinyCfg}),
		Default:  "refit-default", Config: tinyCfg, Cache: NewAnswerCache(1024),
	}
	instrument(s)
	if got := cacheHeader(t, s, string(body), ""); got != "bypass" {
		t.Fatalf("default grid X-Estimate-Cache %q, want bypass", got)
	}
	if n := s.Cache.Len(); n != 0 {
		t.Fatalf("default grid left Cache.Len() = %d, want 0", n)
	}
	if hit, miss, bypass := cacheTotals(t, s); hit+miss+bypass != 0 {
		t.Fatalf("default grid counted cache lookups: hit=%d miss=%d bypass=%d", hit, miss, bypass)
	}
}

// TestAnswerCacheSeparatesServers: servers that differ in fallback
// methodology or simulator provenance never share a cached simulation,
// even over one AnswerCache; an identically configured server does.
func TestAnswerCacheSeparatesServers(t *testing.T) {
	cache := NewAnswerCache(1024)
	server := func(mod func(*Server)) *Server {
		s := testServer(t)
		s.Cache = cache
		mod(s)
		return s
	}
	base := server(func(*Server) {})
	if got := cacheHeader(t, base, outOfRange, ""); got != "miss" {
		t.Fatalf("cold base server: %q, want miss", got)
	}
	for name, tc := range map[string]struct {
		mod  func(*Server)
		want string
	}{
		"same configuration": {func(*Server) {}, "hit"},
		"other methodology": {func(s *Server) {
			s.Config.Seed++
		}, "miss"},
		"other sim provenance": {func(s *Server) {
			s.Sim = &estimate.FaultBackend{Inner: s.Sim, Seed: 1} // transparent, distinct provenance
		}, "miss"},
	} {
		if got := cacheHeader(t, server(tc.mod), outOfRange, ""); got != tc.want {
			t.Errorf("%s: X-Estimate-Cache %q, want %s", name, got, tc.want)
		}
	}
}

// TestAnswerCacheSharedAcrossEntries: registry entries that fall back
// on one scenario share one simulation — the entry is not in the key —
// while each answer keeps the fallback_reason of the entry that served
// it.
func TestAnswerCacheSharedAcrossEntries(t *testing.T) {
	counting := &countingBackend{inner: estimate.Sim{}}
	s := &Server{
		Registry: estimate.StandardRegistry(estimate.RegistryConfig{
			Config: tinyCfg, Sizes: []int{4, 8}, Lengths: []int{16, 1024},
		}),
		Default: "refit-default", Sim: counting, Config: tinyCfg, Cache: NewAnswerCache(64),
	}
	// Outside the refit envelope (p = 16 > 8), and a pair Table 3 never
	// fitted: every entry below falls back on it.
	const body = `{"machine":"SP2","op":"allgather","p":16,"m":64}`
	var micros float64
	for i, tc := range []struct{ registry, verdict, reason string }{
		{"refit-default", "miss", "outside the calibrated range p∈[4,8] m∈[16,1024]"},
		{"refit-adaptive", "hit", "outside the calibrated range p∈[4,8] m∈[16,1024]"},
		{"paper-table3", "hit", "SP2/allgather has no paper-table3 expression"},
	} {
		rec := post(t, s, body, "registry="+tc.registry)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.registry, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Estimate-Cache"); got != tc.verdict {
			t.Errorf("%s: X-Estimate-Cache %q, want %s", tc.registry, got, tc.verdict)
		}
		a := decode(t, rec).Answers[0]
		if !a.Fallback || a.Backend != estimate.BackendSim || !strings.Contains(a.FallbackReason, tc.reason) {
			t.Errorf("%s: answer %+v, want a sim fallback with reason containing %q", tc.registry, a, tc.reason)
		}
		if i == 0 {
			micros = a.Micros
		} else if a.Micros != micros {
			t.Errorf("%s: micros %v, want the shared simulation's %v", tc.registry, a.Micros, micros)
		}
	}
	if calls := counting.calls.Load(); calls != 1 {
		t.Fatalf("simulator ran %d times for three entries' fallbacks, want 1", calls)
	}
}

// TestAnswerCacheBoundsMemory wires a server the way cmd/serve does —
// the registry's calibrated entries share a sample memo, the fallback
// simulator carries none — and streams 4× Cap() distinct fallback
// scenarios through it. The answer cache stays within its capacity and
// the memo, which only holds calibration-grid cells, stops growing once
// the grid is warm.
func TestAnswerCacheBoundsMemory(t *testing.T) {
	reg := obs.NewRegistry()
	memo := estimate.NewSampleMemo()
	s := &Server{
		Registry: estimate.StandardRegistry(estimate.RegistryConfig{
			Memo: memo, Obs: reg, Config: tinyCfg, Sizes: []int{4, 8}, Lengths: []int{16, 1024},
		}),
		Default: "refit-default", Sim: estimate.Sim{}, Config: tinyCfg,
		Cache: NewAnswerCache(acShards), Obs: NewMetrics(reg),
	}
	memoMisses := func() uint64 {
		return promValues(t, get(t, s, "/metrics").Body.String())[`estimate_memo_total{result="miss"}`]
	}
	// Warm-up: one in-envelope scenario calibrates its triple.
	if rec := post(t, s, `{"machine":"T3D","op":"broadcast","p":8,"m":16}`, ""); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body.String())
	}
	warm, warmLen := memoMisses(), memo.Len()
	if warm == 0 {
		t.Fatal("warm-up calibrated nothing through the memo")
	}
	for i := 0; i < 4*s.Cache.Cap(); i++ {
		body := fmt.Sprintf(`{"machine":"T3D","op":"broadcast","p":8,"m":%d}`, 2048+i)
		if got := cacheHeader(t, s, body, ""); got != "miss" {
			t.Fatalf("distinct fallback %d: X-Estimate-Cache %q, want miss", i, got)
		}
		if n := s.Cache.Len(); n > s.Cache.Cap() {
			t.Fatalf("after %d fallbacks: Len() = %d exceeds Cap() = %d", i+1, n, s.Cache.Cap())
		}
	}
	if got := memoMisses(); got != warm {
		t.Errorf(`estimate_memo_total{result="miss"} moved from %d to %d under fallback traffic`, warm, got)
	}
	if n := memo.Len(); n != warmLen {
		t.Errorf("memo grew from %d to %d entries under fallback traffic", warmLen, n)
	}
}
