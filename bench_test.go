// Package repro_test holds the benchmark harness: one benchmark per
// table and figure of the paper's evaluation section, plus ablation
// benchmarks over the collective-algorithm choices DESIGN.md calls out.
//
// Wall-clock numbers measure the simulator; the reproduced quantity —
// the simulated collective time in µs — is attached to every benchmark
// as the "simulated-µs" metric, so `go test -bench` output carries the
// paper-comparable numbers.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/paper"
	"repro/internal/sim"
	"repro/internal/stap"
)

// benchCfg keeps benchmark iterations cheap while preserving the
// methodology (warm-up discard + timed loop + max-reduce).
var benchCfg = measure.Config{Warmup: 1, K: 3, Reps: 1, Seed: 1}

// reportSim attaches the simulated time as a benchmark metric.
func reportSim(b *testing.B, micros float64) {
	b.ReportMetric(micros, "simulated-µs")
}

// --- Fig. 1: startup latencies T0(p) ---------------------------------

func BenchmarkFig1_StartupLatency(b *testing.B) {
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			p := 64
			b.Run(fmt.Sprintf("%s/%s/p=%d", mach.Name(), op, p), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					last = measure.StartupLatency(mach, op, p, benchCfg)
				}
				reportSim(b, last)
			})
		}
	}
}

// --- Fig. 2: T(m, 32) vs message length ------------------------------

func BenchmarkFig2_MessageLengthSweep(b *testing.B) {
	for _, mach := range machine.All() {
		for _, m := range []int{16, 1024, 65536} {
			b.Run(fmt.Sprintf("%s/alltoall/m=%d", mach.Name(), m), func(b *testing.B) {
				var last float64
				for i := 0; i < b.N; i++ {
					last = measure.MeasureOp(mach, machine.OpAlltoall, 32, m, benchCfg).Micros
				}
				reportSim(b, last)
			})
		}
	}
}

// --- Fig. 3: T(m, p) vs machine size, short and long messages --------

func BenchmarkFig3_MachineSizeSweep(b *testing.B) {
	for _, mach := range machine.All() {
		for _, m := range []int{16, 65536} {
			for _, p := range []int{8, 64} {
				b.Run(fmt.Sprintf("%s/broadcast/p=%d/m=%d", mach.Name(), p, m), func(b *testing.B) {
					var last float64
					for i := 0; i < b.N; i++ {
						last = measure.MeasureOp(mach, machine.OpBroadcast, p, m, benchCfg).Micros
					}
					reportSim(b, last)
				})
			}
		}
	}
}

// --- Fig. 4: startup/transmission breakdown --------------------------

func BenchmarkFig4_Breakdown(b *testing.B) {
	const p, m = 32, 1024
	var total float64
	for i := 0; i < b.N; i++ {
		for _, op := range paper.SixOps {
			for _, mach := range machine.All() {
				measure.StartupLatency(mach, op, p, benchCfg)
				t := measure.MeasureOp(mach, op, p, m, benchCfg).Micros
				if mach.Name() == "Paragon" && op == machine.OpAlltoall {
					total = t
				}
			}
		}
	}
	// Report the paper's §7 headline: the Paragon total-exchange bar.
	reportSim(b, total)
}

// --- Fig. 5: aggregated bandwidths -----------------------------------

func BenchmarkFig5_AggregatedBandwidth(b *testing.B) {
	const p = 64
	lengths := []int{4, 16384, 65536}
	for _, mach := range machine.All() {
		b.Run(mach.Name()+"/alltoall/p=64", func(b *testing.B) {
			var mbs float64
			for i := 0; i < b.N; i++ {
				d := estimate.BuildDataset(mach, machine.OpAlltoall, mpi.DefaultAlgorithms(mach), []int{p}, lengths, benchCfg)
				base, _ := d.At(p, lengths[0])
				var xs, ys []float64
				for _, m := range lengths[1:] {
					v, _ := d.At(p, m)
					xs = append(xs, float64(m-lengths[0]))
					ys = append(ys, v-base)
				}
				slope, _ := fit.ThroughOrigin(xs, ys)
				mbs = paper.AggregatedMultiplier(machine.OpAlltoall, p) / slope
			}
			b.ReportMetric(mbs, "simulated-MB/s")
		})
	}
}

// --- Table 3: the full sweep + two-stage fit --------------------------

func BenchmarkTable3_FitExpressions(b *testing.B) {
	sizes := []int{2, 4, 8, 16, 32}
	for _, mach := range machine.All() {
		b.Run(mach.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, op := range machine.Ops {
					lengths := []int{4, 4096, 65536}
					if op == machine.OpBarrier {
						lengths = []int{0}
					}
					d := estimate.BuildDataset(mach, op, mpi.DefaultAlgorithms(mach), sizes, lengths, benchCfg)
					if e := fit.TwoStage(d, paper.StartupShape(op), paper.PerByteShape(mach.Name(), op)); e.String() == "" {
						b.Fatal("empty fit")
					}
				}
			}
		})
	}
}

// --- Ablations: algorithm choices per operation -----------------------
// These quantify why the vendor implementations have the shapes the
// paper reports (e.g. what the Paragon would have gained from a Bruck
// total exchange for short messages).

// simTimeWith runs one collective under an explicit algorithm table and
// returns the completion time of the slowest rank in µs.
func simTimeWith(mach *machine.Machine, p int, algs mpi.Algorithms, body func(c *mpi.Comm)) float64 {
	cl := machine.NewCluster(mach, p, 1)
	var worst sim.Time
	err := mpi.RunWithAlgorithms(cl, algs, func(c *mpi.Comm) {
		body(c)
		if now := c.Proc().Now(); now > worst {
			worst = now
		}
	})
	if err != nil {
		panic(err)
	}
	return sim.Duration(worst).Micros()
}

func BenchmarkAblation_AlltoallAlgorithms(b *testing.B) {
	for _, alg := range []string{"linear", "pairwise", "xor", "bruck"} {
		for _, m := range []int{64, 65536} {
			b.Run(fmt.Sprintf("SP2/%s/m=%d", alg, m), func(b *testing.B) {
				mach := machine.SP2()
				algs := mpi.DefaultAlgorithms(mach)
				algs.Alltoall = alg
				var last float64
				for i := 0; i < b.N; i++ {
					last = simTimeWith(mach, 32, algs, func(c *mpi.Comm) {
						blocks := make([][]byte, c.Size())
						for j := range blocks {
							blocks[j] = make([]byte, m)
						}
						c.Alltoall(blocks)
					})
				}
				reportSim(b, last)
			})
		}
	}
}

func BenchmarkAblation_BcastAlgorithms(b *testing.B) {
	for _, alg := range []string{"linear", "binomial", "scatter-allgather", "pipelined"} {
		for _, m := range []int{1024, 65536} {
			b.Run(fmt.Sprintf("Paragon/%s/m=%d", alg, m), func(b *testing.B) {
				mach := machine.Paragon()
				algs := mpi.DefaultAlgorithms(mach)
				algs.Bcast = alg
				var last float64
				for i := 0; i < b.N; i++ {
					last = simTimeWith(mach, 64, algs, func(c *mpi.Comm) {
						var msg []byte
						if c.Rank() == 0 {
							msg = make([]byte, m)
						}
						c.Bcast(0, msg)
					})
				}
				reportSim(b, last)
			})
		}
	}
}

func BenchmarkAblation_BarrierAlgorithms(b *testing.B) {
	cases := []struct {
		mach *machine.Machine
		alg  string
	}{
		{machine.SP2(), "central"},
		{machine.SP2(), "tree"},
		{machine.SP2(), "dissemination"},
		{machine.T3D(), "hardware"},
	}
	for _, cse := range cases {
		b.Run(cse.mach.Name()+"/"+cse.alg, func(b *testing.B) {
			algs := mpi.DefaultAlgorithms(cse.mach)
			algs.Barrier = cse.alg
			var last float64
			for i := 0; i < b.N; i++ {
				last = simTimeWith(cse.mach, 64, algs, func(c *mpi.Comm) { c.Barrier() })
			}
			reportSim(b, last)
		})
	}
}

func BenchmarkAblation_GatherAlgorithms(b *testing.B) {
	for _, alg := range []string{"linear", "binomial"} {
		b.Run("Paragon/"+alg, func(b *testing.B) {
			mach := machine.Paragon()
			algs := mpi.DefaultAlgorithms(mach)
			algs.Gather = alg
			var last float64
			for i := 0; i < b.N; i++ {
				last = simTimeWith(mach, 64, algs, func(c *mpi.Comm) {
					c.Gather(0, make([]byte, 1024))
				})
			}
			reportSim(b, last)
		})
	}
}

func BenchmarkAblation_ScanAlgorithms(b *testing.B) {
	for _, alg := range []string{"linear", "recursive-doubling"} {
		b.Run("SP2/"+alg, func(b *testing.B) {
			mach := machine.SP2()
			algs := mpi.DefaultAlgorithms(mach)
			algs.Scan = alg
			var last float64
			for i := 0; i < b.N; i++ {
				last = simTimeWith(mach, 64, algs, func(c *mpi.Comm) {
					c.Scan(mpi.EncodeFloats(make([]float32, 16)), mpi.Sum, mpi.Float)
				})
			}
			reportSim(b, last)
		})
	}
}

// --- Simulator engine benchmarks --------------------------------------

func BenchmarkEngine_EventThroughput(b *testing.B) {
	k := sim.New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngine_AlltoallMessages(b *testing.B) {
	// Raw messaging throughput: a 64-node pairwise exchange of 1 KB.
	for i := 0; i < b.N; i++ {
		err := mpi.Run(machine.T3D(), 64, 1, func(c *mpi.Comm) {
			blocks := make([][]byte, c.Size())
			for j := range blocks {
				blocks[j] = make([]byte, 1024)
			}
			c.Alltoall(blocks)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- STAP application benchmark ---------------------------------------

func BenchmarkSTAP_Pipeline(b *testing.B) {
	prm := stap.Params{Ranges: 256, Pulses: 64, Channels: 8, CFARThreshold: 12, DiagonalLoad: 1}
	for _, mach := range machine.All() {
		b.Run(mach.Name(), func(b *testing.B) {
			var last *stap.Result
			for i := 0; i < b.N; i++ {
				res, err := stap.Run(mach, 16, prm, nil, 1)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportSim(b, sim.Duration(last.Times.Total).Micros())
			b.ReportMetric(100*float64(last.Times.CommTime())/float64(last.Times.Total), "comm-%")
		})
	}
}
