package main

import (
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/paper"
)

// shapeCfg is the methodology the shape claims are asserted under.
var shapeCfg = measure.Config{Warmup: 1, K: 2, Reps: 1, Seed: 1}

// The tests share grids, so a point read by several tests is measured
// once. Tests in this package do not run in parallel.
var (
	// shapeGrid runs on the real 64-node configurations.
	shapeGrid = sync.OnceValue(func() *grid {
		g := newGrid(shapeCfg, estimate.Sim{}, nil, 64)
		g.lengths = []int{4, 16384, 65536}
		return g
	})
	// fastGrid keeps the figure tests quick: small sweeps, few iterations.
	fastGrid = sync.OnceValue(func() *grid {
		g := newGrid(measure.Fast(), estimate.Sim{}, nil, 16)
		g.lengths = []int{4, 1024, 16384}
		return g
	})
)

// measured prefetches every point read reads from g in one sweep, then
// returns read's result.
func measured[T any](g *grid, read func() T) T {
	g.prefetch(func() { read() })
	return read()
}

func TestShapeClaims(t *testing.T) {
	g := shapeGrid()
	g.prefetch(func() {
		for _, c := range claims {
			c.eval(g)
		}
	})
	for _, c := range claims {
		t.Run(c.id, func(t *testing.T) {
			summary, failures := c.eval(g)
			for _, f := range failures {
				t.Error(f)
			}
			t.Log(summary)
		})
	}
}

func TestFig1ShapesAndCoverage(t *testing.T) {
	figs := measured(fastGrid(), fastGrid().fig1)
	if len(figs) != 6 {
		t.Fatalf("Fig.1 has %d panels, want 6", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 3 {
			t.Fatalf("%s: %d series, want 3 machines", f.Title, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.X) == 0 {
				t.Fatalf("%s/%s: empty series", f.Title, s.Label)
			}
			// Startup latency must be monotonically non-decreasing in p
			// (allowing jitter of a few percent).
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < s.Y[i-1]*0.9 {
					t.Errorf("%s/%s: latency fell from %v to %v", f.Title, s.Label, s.Y[i-1], s.Y[i])
				}
			}
		}
	}
}

func TestFig2TimeGrowsWithMessageLength(t *testing.T) {
	figs := measured(fastGrid(), fastGrid().fig2)
	if len(figs) != 6 {
		t.Fatalf("Fig.2 has %d panels", len(figs))
	}
	for _, f := range figs {
		for _, s := range f.Series {
			if last := len(s.Y) - 1; s.Y[last] <= s.Y[0] {
				t.Errorf("%s/%s: no growth across m sweep", f.Title, s.Label)
			}
		}
	}
}

func TestFig3HasShortAndLongSeries(t *testing.T) {
	figs := measured(fastGrid(), fastGrid().fig3)
	if len(figs) != 7 {
		t.Fatalf("Fig.3 has %d panels, want 7 (incl. barrier)", len(figs))
	}
	for _, f := range figs {
		want := 6 // 3 machines × short/long
		if strings.Contains(f.Title, "barrier") {
			want = 3
		}
		if len(f.Series) != want {
			t.Errorf("%s: %d series, want %d", f.Title, len(f.Series), want)
		}
	}
}

func TestFig4BreakdownConsistent(t *testing.T) {
	rows := measured(fastGrid(), fastGrid().fig4)
	if len(rows) != 18 {
		t.Fatalf("Fig.4 has %d bars, want 18 (6 ops × 3 machines)", len(rows))
	}
	for _, r := range rows {
		if r.startup <= 0 || r.total <= 0 {
			t.Errorf("%s/%s: nonpositive bar", r.mach, r.op)
		}
		if r.total < r.startup*0.8 {
			t.Errorf("%s/%s: total %v below startup %v", r.mach, r.op, r.total, r.startup)
		}
	}
}

func TestFig5BandwidthsPositiveAndGrowing(t *testing.T) {
	g := newGrid(shapeCfg, estimate.Sim{}, nil, 0)
	g.lengths = []int{4, 4096, 65536}
	bw := map[string]map[int]float64{}
	for _, r := range measured(g, g.fig5) {
		if r.mbs <= 0 {
			t.Errorf("%s/%s p=%d: bandwidth %v", r.mach, r.op, r.p, r.mbs)
		}
		k := r.mach + "/" + string(r.op)
		if bw[k] == nil {
			bw[k] = map[int]float64{}
		}
		bw[k][r.p] = r.mbs
	}
	// §8: aggregated bandwidth increases monotonically with p for the
	// total exchange (f grows as p²).
	for _, mach := range []string{"SP2", "T3D", "Paragon"} {
		if b := bw[mach+"/alltoall"]; b[32] <= b[16] {
			t.Errorf("%s alltoall R∞ did not grow: %v", mach, b)
		}
	}
}

func TestTable3ShapesMatchPaper(t *testing.T) {
	// The headline structural claim (§8): startup is linear in p for
	// gather/scatter/alltoall and logarithmic for the tree collectives,
	// on every machine. The refits must select the same shapes.
	for _, r := range measured(shapeGrid(), shapeGrid().table3) {
		if r.mach == "T3D" && r.op == machine.OpBarrier {
			continue // hardware barrier: nearly flat, shape is degenerate
		}
		if want := paper.StartupShape(r.op); r.fitted.Startup.Kind != want {
			t.Errorf("%s/%s startup fitted %v, paper says %v (expr %s)",
				r.mach, r.op, r.fitted.Startup.Kind, want, r.fitted)
		}
	}
}

func TestTable3RowsComplete(t *testing.T) {
	rows := measured(fastGrid(), fastGrid().table3)
	if len(rows) != 21 {
		t.Fatalf("Table 3 has %d rows, want 21", len(rows))
	}
	for _, r := range rows {
		if r.paper.String() == "" || r.fitted.String() == "" {
			t.Errorf("%s/%s: empty expression", r.mach, r.op)
		}
	}
}

func TestFittedExpressionsEvaluable(t *testing.T) {
	for _, r := range measured(fastGrid(), fastGrid().table3) {
		if v := r.fitted.Eval(1024, 8); !(v > 0 && v < 1e18) {
			t.Errorf("%s/%s: Eval(1024,8) = %v from %s", r.mach, r.op, v, r.fitted)
		}
	}
}

func TestSpotChecksCovered(t *testing.T) {
	svs := spotValues()
	if len(svs) < 10 {
		t.Fatalf("only %d reported spot values within allocation", len(svs))
	}
	g := shapeGrid()
	for i, v := range measured(g, func() []float64 {
		var vs []float64
		for _, sv := range svs {
			vs = append(vs, g.spot(sv))
		}
		return vs
	}) {
		if v <= 0 {
			t.Errorf("%s %s %s p=%d: measured %v", svs[i].Where, svs[i].Machine, svs[i].Op, svs[i].P, v)
		}
	}
}

func TestBandwidthAtReasonableForT3DAlltoall(t *testing.T) {
	// At p=16 the T3D total exchange should deliver hundreds of MB/s
	// (the paper's Fig. 5b scale), nowhere near the 4.8 GB/s raw figure.
	g := fastGrid()
	bw := measured(g, func() float64 { return g.bandwidth("T3D", machine.OpAlltoall, 16, []int{4, 16384, 65536}) })
	if bw < 100 || bw > 2000 {
		t.Fatalf("T3D alltoall R∞(16) = %.0f MB/s, want O(100s)", bw)
	}
}

func TestPrefetchMeasuresEachPointOnce(t *testing.T) {
	g := newGrid(shapeCfg, estimate.Sim{}, nil, 4)
	g.prefetch(func() { g.fig1() })
	n := len(g.vals)
	if n != 6*3*2 { // six ops × three machines × p ∈ {2, 4}
		t.Fatalf("fig1 prefetched %d points, want 36", n)
	}
	g.prefetch(func() { g.fig1() })
	if len(g.vals) != n {
		t.Fatalf("a second prefetch measured %d more points", len(g.vals)-n)
	}
	if err := writeArtifact(io.Discard, g, "fig1", false); err != nil {
		t.Fatal(err)
	}
	if len(g.vals) != n {
		t.Fatalf("rendering after prefetch measured %d more points", len(g.vals)-n)
	}
}

func TestUnknownArtifact(t *testing.T) {
	g := newGrid(shapeCfg, estimate.Sim{}, nil, 0)
	g.prefetch(func() {
		if err := writeArtifact(io.Discard, g, "fig9", false); err == nil {
			t.Error("fig9: want an error")
		}
	})
	if len(g.vals) != 0 {
		t.Errorf("an unknown artifact measured %d points", len(g.vals))
	}
}
