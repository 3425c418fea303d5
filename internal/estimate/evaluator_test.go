package estimate

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/paper"
)

// fullScan is the whole-table nearest-cell scan: every cell, filtered
// by machine and op, then by [lo, hi] — the reference the row lookups
// must reproduce.
func fullScan(t *ErrorTable, mach string, op machine.Op, m, lo, hi int) (ErrorCell, bool) {
	var best ErrorCell
	bestDist := math.Inf(1)
	found := false
	for _, c := range t.Cells {
		if c.Machine != mach || c.Op != op || c.M < lo || c.M > hi {
			continue
		}
		if c.M == m {
			return c, true
		}
		if d := logDist(c.M, m); d < bestDist {
			best, bestDist, found = c, d, true
		}
	}
	return best, found
}

// TestBoundRowMatchesFullScan: for every (machine, op) of a generated
// table — rows of varying sparsity, one row missing — and on-grid and
// off-grid m (0, 3, each grid length ±1, 65537), a row's Bound and
// BoundIn return the same cell as the full-table scan, for
// unconstrained, segment-like, and empty [lo, hi] ranges.
func TestBoundRowMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	grid := paper.MessageLengths()
	table := &ErrorTable{}
	ops := append(append([]machine.Op(nil), machine.Ops...), machine.OpAllgather)
	for _, mach := range machine.All() {
		for _, op := range ops {
			if mach.Name() == "Paragon" && op == machine.OpScan {
				continue // a (machine, op) the validation never reached
			}
			lengths := grid
			if op == machine.OpBarrier {
				lengths = []int{0}
			}
			for _, m := range lengths {
				if len(lengths) > 1 && rng.Intn(3) == 0 {
					continue // sparse rows: most lookups fall between cells
				}
				table.Cells = append(table.Cells, ErrorCell{
					Machine: mach.Name(), Op: op, M: m,
					Median: rng.Float64() / 10, Max: rng.Float64() / 5, Points: 1 + rng.Intn(8),
				})
			}
		}
	}
	probes := []int{0, 3, 65537}
	for _, m := range grid {
		probes = append(probes, m-1, m, m+1)
	}
	ranges := [][2]int{{0, math.MaxInt}, {4, 1024}, {1024, 65536}, {5000, 6000}}
	for _, mach := range machine.All() {
		for _, op := range ops {
			row := table.Row(mach.Name(), op)
			for _, m := range probes {
				want, wantOK := fullScan(table, mach.Name(), op, m, 0, math.MaxInt)
				if got, ok := row.Bound(m); got != want || ok != wantOK {
					t.Fatalf("%s/%s m=%d: row Bound %+v %v, full scan %+v %v", mach.Name(), op, m, got, ok, want, wantOK)
				}
				if got, ok := table.Bound(mach.Name(), op, m); got != want || ok != wantOK {
					t.Fatalf("%s/%s m=%d: table Bound %+v %v, full scan %+v %v", mach.Name(), op, m, got, ok, want, wantOK)
				}
				for _, r := range ranges {
					want, wantOK := fullScan(table, mach.Name(), op, m, r[0], r[1])
					if !wantOK {
						want, wantOK = fullScan(table, mach.Name(), op, m, 0, math.MaxInt)
					}
					if got, ok := row.BoundIn(m, r[0], r[1]); got != want || ok != wantOK {
						t.Fatalf("%s/%s m=%d in %v: row BoundIn %+v %v, full scan %+v %v",
							mach.Name(), op, m, r, got, ok, want, wantOK)
					}
					if got, ok := table.BoundIn(mach.Name(), op, m, r[0], r[1]); got != want || ok != wantOK {
						t.Fatalf("%s/%s m=%d in %v: table BoundIn %+v %v, full scan %+v %v",
							mach.Name(), op, m, r, got, ok, want, wantOK)
					}
				}
			}
		}
	}
}

// TestEntryResolveHandles: one cached handle per (entry, triple) that
// carries the entry's fallback decisions, expression, envelope, and
// bounds row; unknown names are typed errors; attaching bounds after a
// handle was built replaces it.
func TestEntryResolveHandles(t *testing.T) {
	cal := &Calibrated{Config: tinyCfg, Sizes: []int{4, 8}, Lengths: []int{16, 1024}}
	calEntry := &Entry{Name: "cal", Backend: cal, Ranges: cal.Range}
	analytic := PaperAnalytic()
	paperEntry := &Entry{Name: "paper", Backend: analytic, Ranges: analyticRanges(analytic)}

	ev, err := calEntry.Resolve("T3D", "broadcast", "")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := calEntry.Resolve("T3D", "broadcast", ""); again != ev {
		t.Fatal("second Resolve built a new handle")
	}
	if ev.Alg() != defaultAlg || ev.Machine().Name() != "T3D" || ev.Op() != machine.OpBroadcast {
		t.Fatalf("handle names (%s, %s, %s)", ev.Machine().Name(), ev.Op(), ev.Alg())
	}
	if rng, bounded := ev.Range(); !bounded || rng != (Range{PMin: 4, PMax: 8, MMin: 16, MMax: 1024}) {
		t.Fatalf("envelope %v (bounded %v)", rng, bounded)
	}
	if !ev.Covers(8, 1024) || ev.Covers(16, 1024) || ev.Covers(8, 4096) {
		t.Fatal("Covers disagrees with the envelope")
	}
	mach := machine.T3D()
	if got, want := ev.Expression().Predict(300, 8), cal.Expression(mach, machine.OpBroadcast, "binomial").Predict(300, 8); got != want {
		t.Fatalf("handle predicts %v, the backend's fit %v", got, want)
	}
	if len(ev.Bounds()) != 0 {
		t.Fatal("row without an error table")
	}

	calEntry.Bounds = &ErrorTable{Cells: []ErrorCell{{Machine: "T3D", Op: machine.OpBroadcast, M: 16, Points: 3}}}
	bounded, _ := calEntry.Resolve("T3D", "broadcast", "")
	if bounded == ev || len(bounded.Bounds()) != 1 {
		t.Fatalf("handle kept its stale row after bounds were attached: %+v", bounded.Bounds())
	}

	if ev, _ := paperEntry.Resolve("T3D", "allgather", ""); ev.Coverage() != Uncovered || ev.Covers(8, 16) {
		t.Fatal("paper-table3 allgather must be uncovered")
	}
	if ev, _ := paperEntry.Resolve("SP2", "alltoall", "xor"); ev.Coverage() != VendorOnly || ev.Covers(8, 16) {
		t.Fatal("a fixed set must refuse non-default variants")
	}
	if ev, _ := paperEntry.Resolve("SP2", "alltoall", mpi.DefaultAlgorithms(machine.SP2()).Alltoall); ev.Coverage() != Covered {
		t.Fatal("naming the vendor default explicitly must stay covered")
	}

	var unknown *UnknownNameError
	if _, err := calEntry.Resolve("CM-5", "broadcast", ""); !errors.As(err, &unknown) || unknown.Kind != "machine" {
		t.Fatalf("unknown machine: %v", err)
	}
	if _, err := calEntry.Resolve("T3D", "broadcast", "nope"); !errors.As(err, &unknown) || unknown.Kind != "algorithm" {
		t.Fatalf("unknown algorithm: %v", err)
	}
}

// TestCalibratedConcurrentFirstUse: goroutines estimating one cold
// triple through Calibrated.Estimate and through an entry's handle
// share one calibration and read the same value.
func TestCalibratedConcurrentFirstUse(t *testing.T) {
	reg := obs.NewRegistry()
	cal := &Calibrated{Config: tinyCfg, Sizes: []int{2, 4}, Lengths: []int{4, 256}}
	Instrument(reg, nil, cal)
	entry := &Entry{Name: "cal", Backend: cal, Ranges: cal.Range}
	mach := machine.T3D()
	algs := mpi.DefaultAlgorithms(mach)
	var wg sync.WaitGroup
	got := make([]float64, 16)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = est(cal, mach, machine.OpBroadcast, algs, 4, 256, tinyCfg).Sample.Micros
				return
			}
			ev, err := entry.Resolve("T3D", "broadcast", "")
			if err != nil {
				t.Error(err)
				return
			}
			Prepare([]*Evaluator{ev}, 2)
			got[i] = ev.Expression().Predict(256, 4)
		}()
	}
	wg.Wait()
	if n := counterValue(reg, "estimate_expressions_total", "source", "refit"); n != 1 {
		t.Fatalf("%d calibrations of one triple, want 1", n)
	}
	want := cal.Expression(mach, machine.OpBroadcast, "").Predict(256, 4)
	for i, v := range got {
		if v != want {
			t.Fatalf("goroutine %d read %v, the fit predicts %v", i, v, want)
		}
	}
}
