package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/serve/wire"
)

// stubSim stands in for the fallback simulator in the differential
// test: deterministic and instant, so thousands of out-of-envelope
// scenarios cost nothing while still answering distinct values.
type stubSim struct{}

func (stubSim) Name() string       { return estimate.BackendSim }
func (stubSim) Provenance() string { return "differential-stub" }
func (stubSim) Estimate(_ context.Context, mach *machine.Machine, op machine.Op, algs mpi.Algorithms, p, m int, _ measure.Config) (estimate.Estimate, error) {
	return estimate.Estimate{
		Sample:  measure.Sample{Micros: stubMicros(mach.Name(), op, algs.Get(op), p, m)},
		Backend: estimate.BackendSim,
	}, nil
}

func stubMicros(mach string, op machine.Op, alg string, p, m int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%s/%d/%d", mach, op, alg, p, m)
	return float64(h.Sum64()%1_000_000)/7 + 1
}

// differentialScenarios is every valid (machine, op, algorithm) triple
// of every registered operation × p ∈ {2, 7, 8, 20, 32, 33, MaxNodes} ×
// m ∈ {0, 3, 4, 1000, 65536, 65537}: on-grid and off-grid points inside
// and outside every entry's envelope.
func differentialScenarios() []Scenario {
	var out []Scenario
	for _, mach := range machine.All() {
		for _, opName := range coll.RegisteredOps() {
			op := machine.Op(opName)
			for _, alg := range estimate.ValidAlgorithms(mach, op) {
				for _, p := range []int{2, 7, 8, 20, 32, 33, mach.MaxNodes()} {
					for _, m := range []int{0, 3, 4, 1000, 65536, 65537} {
						out = append(out, Scenario{Machine: mach.Name(), Op: opName, Algorithm: alg, P: p, M: m})
					}
				}
			}
		}
	}
	return out
}

// differentialBounds is a synthetic error table over every machine and
// registered operation: cells at sparse length sets that rotate across
// rows (so most lookups are off-grid, and a piecewise answer's nearest
// cell often lies across its segment boundary), one row with only its
// longest length, and one row missing.
func differentialBounds(b estimate.Backend) *estimate.ErrorTable {
	t := &estimate.ErrorTable{Backend: b.Name(), Provenance: b.Provenance()}
	patterns := [][]int{{4, 64, 1024, 16384, 65536}, {4, 4096, 65536}, {16, 256, 65536}, {4, 1024, 2048, 65536}}
	i, row := 0, 0
	for _, mach := range machine.All() {
		for _, opName := range coll.RegisteredOps() {
			op := machine.Op(opName)
			row++
			lengths := patterns[row%len(patterns)]
			switch {
			case op == machine.OpBarrier:
				lengths = []int{0}
			case mach.Name() == "T3D" && op == machine.OpBroadcast:
				lengths = []int{65536}
			case mach.Name() == "Paragon" && op == machine.OpScan:
				continue
			}
			for _, m := range lengths {
				i++
				t.Cells = append(t.Cells, estimate.ErrorCell{
					Machine: mach.Name(), Op: op, M: m,
					Median: float64(i%97) / 1000, Max: float64(i%89)/500 + 0.01, Points: i%5 + 1,
				})
			}
		}
	}
	return t
}

// diffAnswer is one answer decoded from any codec, for cross-codec
// comparison.
type diffAnswer struct {
	micros   float64
	fallback bool
	reason   string
	bound    *Bound
}

func fromAnswers(as []Answer) []diffAnswer {
	out := make([]diffAnswer, len(as))
	for i, a := range as {
		out[i] = diffAnswer{a.Micros, a.Fallback, a.FallbackReason, a.ExpectedError}
	}
	return out
}

// decodeAnswers parses a 200 response body of any codec.
func decodeAnswers(t *testing.T, codec string, body []byte) []diffAnswer {
	t.Helper()
	switch codec {
	case "json":
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return fromAnswers(resp.Answers)
	case "ndjson":
		var as []Answer
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var a Answer
			if err := json.Unmarshal(line, &a); err != nil {
				t.Fatal(err)
			}
			as = append(as, a)
		}
		return fromAnswers(as)
	}
	var resp wire.Response
	if err := resp.Decode(body); err != nil {
		t.Fatal(err)
	}
	out := make([]diffAnswer, len(resp.Answers))
	for i, a := range resp.Answers {
		out[i] = diffAnswer{micros: a.Micros, fallback: a.Fallback, reason: a.FallbackReason}
		if a.HasBound {
			out[i].bound = &Bound{
				RelMedian: a.Bound.RelMedian, RelMax: a.Bound.RelMax, BasisM: a.Bound.BasisM,
				Points: a.Bound.Points, SegmentMMin: a.Bound.SegmentMMin, SegmentMMax: a.Bound.SegmentMMax,
			}
		}
	}
	return out
}

// diffBodies encodes one batch in all three codecs.
func diffBodies(t *testing.T, scns []Scenario) map[string][]byte {
	t.Helper()
	js, err := json.Marshal(scns)
	if err != nil {
		t.Fatal(err)
	}
	req := wire.Request{}
	index := map[string]uint32{}
	intern := func(s string) uint32 {
		if i, ok := index[s]; ok {
			return i
		}
		index[s] = uint32(len(req.Table))
		req.Table = append(req.Table, s)
		return index[s]
	}
	for _, sc := range scns {
		req.Records = append(req.Records, wire.Record{
			Mach: intern(sc.Machine), Op: intern(sc.Op), Alg: intern(sc.Algorithm), P: sc.P, M: sc.M,
		})
	}
	return map[string][]byte{"json": js, "ndjson": ndjsonBody(t, scns), "binary": req.Append(nil)}
}

var diffContentTypes = map[string]string{"json": ctJSON, "ndjson": ctNDJSON, "binary": wire.ContentType}

// postRegistry posts one codec's body to the named registry entry.
func postRegistry(s *Server, registry, codec string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate?registry="+registry, bytes.NewReader(body))
	req.Header.Set("Content-Type", diffContentTypes[codec])
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestDifferentialEntries is the differential harness over the four
// standard registry entries: every valid triple on on-grid and off-grid
// (p, m), answered over JSON, NDJSON, and binary, without and then with
// error bounds attached.
//
//   - Every closed-form answer equals entry.Backend.Estimate bit for bit.
//   - Every fallback answer is the fallback simulator's value, and the
//     fallback decision matches the entry's envelope and coverage.
//   - The three codecs agree on values, fallback_reason, and
//     expected_error.
//   - The status and a SHA-256 of every response body (batches and
//     invalid single scenarios) match testdata/differential.golden.txt,
//     which pins the serving path's bytes.
func TestDifferentialEntries(t *testing.T) {
	if raceEnabled {
		t.Skip("calibrating every triple of three refit families is too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("calibrates every triple of three refit families")
	}
	memo := estimate.NewSampleMemo()
	reg := estimate.StandardRegistry(estimate.RegistryConfig{Memo: memo})
	s := &Server{Registry: reg, Default: "refit-default", Sim: stubSim{}, Cache: NewAnswerCache(1 << 16)}
	scns := differentialScenarios()
	bodies := diffBodies(t, scns)
	invalid := []Scenario{
		{Machine: "T3D", Op: "alltoall", P: 1, M: 16},
		{Machine: "T3D", Op: "alltoall", P: 65, M: 16},
		{Machine: "SP2", Op: "gather", Algorithm: "nope", P: 8, M: 16},
		{Machine: "CM-5", Op: "gather", P: 8, M: 16},
		{Machine: "SP2", Op: "gather", P: 8, M: 1 << 25},
	}
	var digest strings.Builder
	for _, bounded := range []bool{false, true} {
		for _, entry := range reg.Entries() {
			if bounded {
				entry.Bounds = differentialBounds(entry.Backend)
			}
			var ref []diffAnswer
			for _, codec := range []string{"json", "ndjson", "binary"} {
				rec := postRegistry(s, entry.Name, codec, bodies[codec])
				fmt.Fprintf(&digest, "%s bounds=%v %s batch %d %x\n", entry.Name, bounded, codec,
					rec.Code, sha256.Sum256(rec.Body.Bytes()))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", entry.Name, codec, rec.Code, rec.Body.String())
				}
				got := decodeAnswers(t, codec, rec.Body.Bytes())
				if len(got) != len(scns) {
					t.Fatalf("%s %s: %d answers for %d scenarios", entry.Name, codec, len(got), len(scns))
				}
				if ref == nil {
					ref = got
					checkAgainstBackend(t, entry, scns, got, bounded)
					continue
				}
				for i := range got {
					if !sameAnswer(got[i], ref[i]) {
						t.Fatalf("%s scenario %d %+v: %s answer %+v differs from json %+v",
							entry.Name, i, scns[i], codec, got[i], ref[i])
					}
				}
			}
			for i, sc := range invalid {
				for _, codec := range []string{"json", "ndjson", "binary"} {
					rec := postRegistry(s, entry.Name, codec, diffBodies(t, []Scenario{sc})[codec])
					fmt.Fprintf(&digest, "%s bounds=%v %s invalid-%d %d %x\n", entry.Name, bounded, codec, i,
						rec.Code, sha256.Sum256(rec.Body.Bytes()))
					if rec.Code != http.StatusBadRequest {
						t.Fatalf("%s %s invalid %+v: status %d", entry.Name, codec, sc, rec.Code)
					}
				}
			}
		}
	}
	checkGolden(t, "differential.golden.txt", []byte(digest.String()))
}

func sameAnswer(a, b diffAnswer) bool {
	if math.Float64bits(a.micros) != math.Float64bits(b.micros) || a.fallback != b.fallback || a.reason != b.reason {
		return false
	}
	if (a.bound == nil) != (b.bound == nil) {
		return false
	}
	return a.bound == nil || *a.bound == *b.bound
}

// checkAgainstBackend compares one entry's answers with the backend
// called directly and with the fallback decision its envelope implies.
func checkAgainstBackend(t *testing.T, entry *estimate.Entry, scns []Scenario, got []diffAnswer, bounded bool) {
	t.Helper()
	for i, sc := range scns {
		mach := machine.ByName(sc.Machine)
		op := machine.Op(sc.Op)
		algs := mpi.DefaultAlgorithms(mach)
		if sc.Algorithm != "default" {
			algs = algs.With(op, sc.Algorithm)
		}
		m := sc.M
		if op == machine.OpBarrier {
			m = 0
		}
		a := got[i]
		if wantFallback := !closedFormCovers(entry, mach, op, sc.Algorithm, sc.P, m); a.fallback != wantFallback {
			t.Fatalf("%s scenario %+v: fallback %v, want %v (%q)", entry.Name, sc, a.fallback, wantFallback, a.reason)
		}
		if a.fallback {
			if want := stubMicros(sc.Machine, op, algs.Get(op), sc.P, m); a.micros != want || a.reason == "" || a.bound != nil {
				t.Fatalf("%s scenario %+v: fallback answer %+v, want the simulator's %v with a reason and no bound",
					entry.Name, sc, a, want)
			}
			continue
		}
		est, err := entry.Backend.Estimate(context.Background(), mach, op, algs, sc.P, m, measure.Fast())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.micros) != math.Float64bits(est.Sample.Micros) || a.reason != "" {
			t.Fatalf("%s scenario %+v: served %v (%q), backend %v", entry.Name, sc, a.micros, a.reason, est.Sample.Micros)
		}
		if _, hasRow := entry.Bounds.Bound(sc.Machine, op, m); (a.bound != nil) != (bounded && hasRow) {
			t.Fatalf("%s scenario %+v: bound %+v, bounds attached %v, row present %v", entry.Name, sc, a.bound, bounded, hasRow)
		}
	}
}

// closedFormCovers is the fallback decision restated from the entry's
// public description: a fixed set answers only the pairs it has and
// only vendor-default algorithms; every set answers only inside its
// envelope.
func closedFormCovers(entry *estimate.Entry, mach *machine.Machine, op machine.Op, alg string, p, m int) bool {
	if a, ok := entry.Backend.(*estimate.Analytic); ok {
		if !a.Covers(mach.Name(), op) {
			return false
		}
		if alg != "default" && alg != mpi.DefaultAlgorithms(mach).Get(op) {
			return false
		}
	}
	in, _ := entry.Covers(mach, op, p, m)
	return in
}
