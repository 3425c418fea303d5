package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/sweep"
)

// -update regenerates the golden files in testdata/ instead of
// comparing against them:
//
//	go test ./internal/serve -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden response files")

// checkGolden compares got against testdata/<name> byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the golden (%d vs %d bytes); run with -update after verifying the change is intended",
			name, len(got), len(want))
	}
}

// The golden request bodies (FuzzEstimateRequest seeds from them too).
const (
	goldenFixedRequest = `[{"machine":"T3D","op":"broadcast","p":8,"m":16},
	          {"machine":"T3D","op":"broadcast","p":4,"m":300},
	          {"machine":"T3D","op":"broadcast","p":8,"m":65536},
	          {"machine":"SP2","op":"alltoall","algorithm":"xor","p":4,"m":1024},
	          {"machine":"T3D","op":"barrier","algorithm":"hardware","p":8,"m":0}]`
	goldenPiecewiseRequest = `[{"machine":"T3D","op":"broadcast","p":8,"m":1024},
	          {"machine":"T3D","op":"broadcast","p":32,"m":4096},
	          {"machine":"T3D","op":"scatter","algorithm":"linear","p":32,"m":256},
	          {"machine":"T3D","op":"broadcast","p":8,"m":3000},
	          {"machine":"T3D","op":"scatter","p":8,"m":262144}]`
)

// TestGoldenFixedRegistry pins the handler's response bytes for a small
// fixed registry: a calibrated answer with an exact bound, one with a
// nearest-length bound, an out-of-range sim fallback, a variant
// selection, and the hardware barrier.
func TestGoldenFixedRegistry(t *testing.T) {
	s := testServer(t)
	rec := post(t, s, goldenFixedRequest, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	checkGolden(t, "fixed_registry.golden.json", rec.Body.Bytes())
}

// TestGoldenPiecewiseRegistry pins the serving surface of the
// refit-piecewise expression set: answers carry the protocol segment
// that produced them (segment_m_min/segment_m_max) and an expected
// error looked up within that segment — all byte-stable.
func TestGoldenPiecewiseRegistry(t *testing.T) {
	// A focused grid over the cells the affine model mispredicts worst:
	// T3D broadcast and scatter, every algorithm variant, the paper's
	// lengths at the default calibration sizes.
	spec := sweep.Spec{
		Machines: []string{"T3D"},
		Ops:      []machine.Op{machine.OpBroadcast, machine.OpScatter},
		Algorithms: sweep.AllAlgorithms(
			[]machine.Op{machine.OpBroadcast, machine.OpScatter}),
		Sizes: estimate.DefaultCalibrationSizes,
	}
	scns, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	memo := estimate.NewSampleMemo()
	reg := estimate.StandardRegistry(estimate.RegistryConfig{Memo: memo})
	entry, err := reg.Get("refit-piecewise")
	if err != nil {
		t.Fatal(err)
	}
	simResults := (&sweep.Runner{Backend: estimate.Sim{Memo: memo}}).Run(scns)
	estResults := (&sweep.Runner{Backend: entry.Backend}).Run(scns)
	pairs, err := sweep.Pair(simResults, estResults)
	if err != nil {
		t.Fatal(err)
	}
	table := sweep.BuildErrorTable(entry.Backend, pairs)
	entry.Bounds = &table

	s := &Server{Registry: reg, Default: "refit-piecewise", Sim: estimate.Sim{Memo: memo}}
	// Mid-length scenarios (the regime the piecewise fit exists for),
	// one interpolated length (m=3000: bound must stay inside the
	// serving segment), and one out-of-range fallback.
	rec := post(t, s, goldenPiecewiseRequest, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, a := range resp.Answers[:4] {
		if a.Fallback || a.Backend != estimate.BackendCalibrated {
			t.Fatalf("answer %d not served by the piecewise set: %+v", i, a)
		}
		b := a.ExpectedError
		if b == nil {
			t.Fatalf("answer %d carries no bound: %+v", i, a)
		}
		if b.SegmentMMax == 0 {
			t.Fatalf("answer %d names no serving segment: %+v", i, b)
		}
		if b.BasisM < b.SegmentMMin || b.BasisM > b.SegmentMMax {
			t.Fatalf("answer %d bound basis m=%d outside its segment [%d,%d]",
				i, b.BasisM, b.SegmentMMin, b.SegmentMMax)
		}
	}
	if last := resp.Answers[4]; !last.Fallback || last.Backend != estimate.BackendSim {
		t.Fatalf("out-of-range answer not a sim fallback: %+v", last)
	}
	checkGolden(t, "piecewise_registry.golden.json", rec.Body.Bytes())
}

// TestGoldenDefaultGrid is the acceptance pin: the default 788-scenario
// sweep grid, answered in one batched request by the calibrated
// registry entry with validated error bounds attached, plus two
// out-of-range scenarios served by sim fallback — all byte-stable.
func TestGoldenDefaultGrid(t *testing.T) {
	if raceEnabled {
		t.Skip("the full-grid golden is too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("full default grid in -short mode")
	}

	// The default cmd/sweep grid: every machine, operation, and
	// algorithm variant at p ∈ {8, 32} over the paper's lengths.
	spec := sweep.Spec{
		Algorithms: sweep.AllAlgorithms(machine.Ops),
		Sizes:      estimate.DefaultCalibrationSizes,
	}
	scns, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scns) != 788 {
		t.Fatalf("default grid expands to %d scenarios, want 788", len(scns))
	}

	// Build the bounds the way `sweep -validate -cache` persists them:
	// a sim pass and a calibrated pass over the same grid, paired. The
	// shared memo means every grid cell is simulated exactly once.
	memo := estimate.NewSampleMemo()
	reg := estimate.StandardRegistry(estimate.RegistryConfig{Memo: memo})
	entry, err := reg.Get("refit-default")
	if err != nil {
		t.Fatal(err)
	}
	simResults := (&sweep.Runner{Backend: estimate.Sim{Memo: memo}}).Run(scns)
	estResults := (&sweep.Runner{Backend: entry.Backend}).Run(scns)
	pairs, err := sweep.Pair(simResults, estResults)
	if err != nil {
		t.Fatal(err)
	}
	table := sweep.BuildErrorTable(entry.Backend, pairs)
	entry.Bounds = &table

	s := &Server{Registry: reg, Default: "refit-default", Sim: estimate.Sim{Memo: memo}}

	// The batched request: the whole grid, plus two scenarios outside
	// the calibrated envelope (p beyond the calibrated sizes, m beyond
	// the calibrated lengths).
	request := make([]Scenario, 0, len(scns)+2)
	for _, sc := range scns {
		request = append(request, Scenario{
			Machine: sc.Machine, Op: string(sc.Op), Algorithm: sc.Algorithm, P: sc.P, M: sc.M,
		})
	}
	outOfRange := []Scenario{
		{Machine: "T3D", Op: "broadcast", P: 64, M: 1024},
		{Machine: "SP2", Op: "scatter", P: 8, M: 262144},
	}
	request = append(request, outOfRange...)
	body, err := json.Marshal(request)
	if err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != len(request) {
		t.Fatalf("%d answers for %d scenarios", len(resp.Answers), len(request))
	}
	// Every grid answer is calibrated and error-bounded; the appended
	// scenarios demonstrably fall back to the simulator.
	for i, a := range resp.Answers[:len(scns)] {
		if a.Fallback || a.Backend != estimate.BackendCalibrated {
			t.Fatalf("grid answer %d not calibrated: %+v", i, a)
		}
		if a.ExpectedError == nil {
			t.Fatalf("grid answer %d carries no expected-error bound: %+v", i, a)
		}
	}
	for i, a := range resp.Answers[len(scns):] {
		if !a.Fallback || a.Backend != estimate.BackendSim ||
			!strings.Contains(a.FallbackReason, "outside the calibrated range") {
			t.Fatalf("out-of-range answer %d not a flagged sim fallback: %+v", i, a)
		}
	}

	checkGolden(t, "default_grid.golden.json", rec.Body.Bytes())

	// Byte stability within the process too: a second identical batch
	// (now fully warm) must produce identical bytes.
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("warm re-request changed the response bytes")
	}

	// And the acceptance sanity check the README quotes: the grid's
	// calibrated error bounds are small where the fits interpolate.
	var worst float64
	for _, c := range table.Cells {
		if c.Median > worst {
			worst = c.Median
		}
	}
	if worst > 0.60 {
		t.Fatalf("worst per-cell median relative error %.2f — calibration regressed", worst)
	}
}
