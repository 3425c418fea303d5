package repro_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sweep"
)

// estimateGrid expands cmd/sweep's default grid — all three machines ×
// the paper's seven operations × every registered algorithm variant ×
// the paper's message lengths × p ∈ {8, 32}; 788 scenarios — under the
// cheap benchmark methodology.
func estimateGrid(tb testing.TB) []sweep.Scenario {
	tb.Helper()
	spec := sweep.Spec{
		Algorithms: sweep.AllAlgorithms(machine.Ops),
		Sizes:      []int{8, 32},
		Config:     benchCfg,
	}
	scns, err := spec.Expand()
	if err != nil {
		tb.Fatal(err)
	}
	return scns
}

// runGrid pushes the grid through the sweep runner under one backend
// and attaches the serving throughput as a metric.
func runGrid(b *testing.B, scns []sweep.Scenario, backend estimate.Backend) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		(&sweep.Runner{Backend: backend}).Run(scns)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(scns))*float64(b.N)/secs, "estimates/s")
	}
}

// --- Estimate throughput: the three backends over the default grid ---
// Run with `go test -bench BenchmarkEstimateThroughput -benchtime 1x`
// for one full-grid pass per backend; CI records these non-gating.

func BenchmarkEstimateThroughput(b *testing.B) {
	scns := estimateGrid(b)

	b.Run("sim", func(b *testing.B) {
		runGrid(b, scns, estimate.Sim{})
	})

	b.Run("analytic", func(b *testing.B) {
		runGrid(b, scns, estimate.PaperAnalytic())
	})

	b.Run("calibrated-cold", func(b *testing.B) {
		// Each iteration calibrates from scratch: the measure-then-fit
		// cost the expression cache amortizes away in real use.
		for i := 0; i < b.N; i++ {
			backend := &estimate.Calibrated{Config: benchCfg, Sizes: []int{8, 32}}
			(&sweep.Runner{Backend: backend}).Run(scns)
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(len(scns))*float64(b.N)/secs, "estimates/s")
		}
	})

	b.Run("calibrated-warm", func(b *testing.B) {
		// One shared calibration, then closed-form serving — the hot
		// path the ROADMAP's prediction-service north star cares about.
		backend := &estimate.Calibrated{Config: benchCfg, Sizes: []int{8, 32}}
		(&sweep.Runner{Backend: backend}).Run(scns)
		b.ResetTimer()
		runGrid(b, scns, backend)
	})
}

// --- Piecewise serving: warm closed-form throughput, affine vs the
// protocol-aware piecewise family. Segment dispatch is a short linear
// scan per estimate, so the piecewise numbers must stay within ~10% of
// affine — BENCH.md tracks the pair. Run with the default -benchtime
// (steady state), not 1x.

// parallelSink keeps the parallel benchmark's estimates observable, so
// the compiler cannot drop the calls.
var parallelSink atomic.Uint64

func BenchmarkPiecewiseServing(b *testing.B) {
	scns := estimateGrid(b)
	warm := func(b *testing.B, fit estimate.FitConfig) {
		backend := &estimate.Calibrated{Config: benchCfg, Sizes: []int{8, 32}, Fit: fit}
		(&sweep.Runner{Backend: backend}).Run(scns) // calibrate off the clock
		b.ResetTimer()
		runGrid(b, scns, backend)
	}

	b.Run("affine-warm", func(b *testing.B) {
		warm(b, estimate.FitConfig{})
	})

	b.Run("piecewise-warm", func(b *testing.B) {
		warm(b, estimate.FitConfig{Piecewise: true})
	})

	// Calibrated.Estimate called directly from b.RunParallel goroutines,
	// one op per estimate: the warm read path takes no lock, so ns/op at
	// -cpu 2 must come in below -cpu 1. Names are resolved off the clock.
	b.Run("affine-warm-parallel", func(b *testing.B) {
		backend := &estimate.Calibrated{Config: benchCfg, Sizes: []int{8, 32}}
		(&sweep.Runner{Backend: backend}).Run(scns)
		type point struct {
			mach *machine.Machine
			op   machine.Op
			algs mpi.Algorithms
			p, m int
		}
		points := make([]point, len(scns))
		for i, sc := range scns {
			mach := machine.ByName(sc.Machine)
			algs := mpi.DefaultAlgorithms(mach)
			if sc.Algorithm != sweep.DefaultAlgorithm {
				algs = algs.With(sc.Op, sc.Algorithm)
			}
			points[i] = point{mach, sc.Op, algs, sc.P, sc.M}
		}
		var offset atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int(offset.Add(int64(len(points)/4))) % len(points)
			var sink float64
			for pb.Next() {
				pt := &points[i]
				est, _ := backend.Estimate(context.Background(), pt.mach, pt.op, pt.algs, pt.p, pt.m, benchCfg)
				sink += est.Sample.Micros
				if i++; i == len(points) {
					i = 0
				}
			}
			parallelSink.Add(uint64(sink))
		})
	})
}
