package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
)

// TestBinaryAllocsFlatInBatchSize: a warm binary batch allocates O(1)
// per request — the same count at 788 and at 3152 scenarios, with
// error bounds attached and the fan-out pool in use. Per-scenario work
// (envelope test, Predict, bound lookup) must allocate nothing.
func TestBinaryAllocsFlatInBatchSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cal := &estimate.Calibrated{Config: tinyCfg, Sizes: []int{4, 8}, Lengths: []int{16, 1024}}
	reg := estimate.NewRegistry()
	if err := reg.Register(&estimate.Entry{
		Name: "cal", Backend: cal, Ranges: cal.Range, Bounds: differentialBounds(cal),
	}); err != nil {
		t.Fatal(err)
	}
	s := &Server{Registry: reg, Default: "cal", Sim: stubSim{}, Workers: 2}
	h := s.Handler()

	// In-envelope scenarios over every machine and paper operation.
	var pool []Scenario
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			for p := 4; p <= 8; p++ {
				for _, m := range []int{16, 100, 500, 1024} {
					pool = append(pool, Scenario{Machine: mach.Name(), Op: string(op), Algorithm: "default", P: p, M: m})
				}
			}
		}
	}
	allocs := func(n int) float64 {
		scns := make([]Scenario, n)
		for i := range scns {
			scns[i] = pool[i%len(pool)]
		}
		body := diffBodies(t, scns)["binary"]
		respBuf := make([]byte, 0, 64*n+1024)
		serve := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
			req.Header.Set("Content-Type", diffContentTypes["binary"])
			rec := httptest.NewRecorder()
			rec.Body = bytes.NewBuffer(respBuf[:0])
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
		serve() // calibrate and size the pooled scratch off the count
		return testing.AllocsPerRun(20, serve)
	}
	small, large := allocs(788), allocs(4*788)
	t.Logf("allocs/request: %.1f at 788 scenarios, %.1f at 3152", small, large)
	// The slack absorbs a garbage collection emptying the scratch pools
	// mid-measurement (~15 allocations spread over the 20 runs); one
	// allocation per scenario would add 2364.
	if large > small+8 {
		t.Fatalf("allocations grow with batch size: %.1f at 788 scenarios, %.1f at 3152", small, large)
	}
}
