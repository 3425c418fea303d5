package main

import (
	"math"
	"math/rand"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/paper"
	"repro/internal/serve"
)

// triple is one (machine, op, algorithm) the service can answer.
type triple struct {
	mach *machine.Machine
	op   machine.Op
	alg  string
}

// allTriples lists every machine × paper op × valid algorithm — the
// set `serve -warm` precalibrates — in a fixed order.
func allTriples() []triple {
	var out []triple
	for _, mach := range machine.All() {
		for _, op := range machine.Ops {
			for _, alg := range estimate.ValidAlgorithms(mach, op) {
				out = append(out, triple{mach, op, alg})
			}
		}
	}
	return out
}

func (t triple) scenario(p, m int) serve.Scenario {
	if t.op == machine.OpBarrier {
		m = 0
	}
	return serve.Scenario{Machine: t.mach.Name(), Op: string(t.op), Algorithm: t.alg, P: p, M: m}
}

// The calibrated envelope of the default registry entry: machine sizes
// estimate.DefaultCalibrationSizes, message lengths the paper's sweep.
const (
	envPMin, envPMax = 8, 32
	envMMin, envMMax = 4, 65536
)

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi int) int {
	v := int(math.Round(math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))))
	return min(max(v, lo), hi)
}

// inEnvelope draws a scenario the default entry answers in closed
// form: any triple, p uniform in [8,32], m log-uniform in [4,65536].
func inEnvelope(rng *rand.Rand, ts []triple) serve.Scenario {
	t := ts[rng.Intn(len(ts))]
	return t.scenario(envPMin+rng.Intn(envPMax-envPMin+1), logUniform(rng, envMMin, envMMax))
}

// onCalibrationGrid reports whether the calibration measured (p, m)
// itself, so a held-out point must avoid it.
func onCalibrationGrid(sc serve.Scenario) bool {
	if sc.P != envPMin && sc.P != envPMax {
		return false
	}
	if sc.Op == string(machine.OpBarrier) {
		return true
	}
	for _, m := range paper.MessageLengths() {
		if sc.M == m {
			return true
		}
	}
	return false
}

// heldOut draws n in-envelope scenarios no calibration grid cell
// holds, cycling through the triples so every one is represented.
func heldOut(rng *rand.Rand, ts []triple, n int) []serve.Scenario {
	out := make([]serve.Scenario, 0, n)
	for len(out) < n {
		t := ts[len(out)%len(ts)]
		sc := t.scenario(envPMin+rng.Intn(envPMax-envPMin+1), logUniform(rng, envMMin, envMMax))
		if !onCalibrationGrid(sc) {
			out = append(out, sc)
		}
	}
	return out
}

// Fallback scenarios leave the envelope through p: below it ([2,7]) or
// above it ([33,64]). 64 is the smallest machine's node count; larger
// allocations are left out so that no single simulation dominates a run.
const (
	fbLowMin, fbLowMax   = 2, envPMin - 1
	fbHighMin, fbHighMax = envPMax + 1, 64
	fbMSplit             = 1024
)

// fallbackPool draws one out-of-envelope scenario per stratum — triple
// × p band (below, above) × m band (short, long; barriers have one) —
// and shuffles them. Stratifying keeps the pool's total simulation
// cost close from seed to seed while the scenarios themselves differ.
func fallbackPool(rng *rand.Rand, ts []triple) []serve.Scenario {
	var pool []serve.Scenario
	for _, t := range ts {
		for _, band := range [][2]int{{fbLowMin, fbLowMax}, {fbHighMin, fbHighMax}} {
			mBands := [][2]int{{envMMin, fbMSplit - 1}, {fbMSplit, envMMax}}
			if t.op == machine.OpBarrier {
				mBands = mBands[:1]
			}
			for _, mb := range mBands {
				p := band[0] + rng.Intn(band[1]-band[0]+1)
				pool = append(pool, t.scenario(p, logUniform(rng, mb[0], mb[1])))
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// zipfS is the Zipf exponent of fallback draws: a few scenarios are
// asked for again and again, most only once or twice.
const zipfS = 1.1

// zipfDraws returns n Zipf-distributed indexes into a pool of size
// poolLen (rank 0 most popular).
func zipfDraws(rng *rand.Rand, poolLen, n int) []int {
	z := rand.NewZipf(rng, zipfS, 1, uint64(poolLen-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// subSeed derives an independent stream seed from the run seed and a
// purpose tag, so each generated input depends on the seed alone and
// not on how much of another stream was consumed.
func subSeed(seed int64, tag uint64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + tag
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

func newRand(seed int64, tag uint64) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, tag)))
}

// Stream tags for subSeed.
const (
	tagBatches uint64 = iota + 1
	tagHeldOut
	tagFallback
	tagFallbackCheck
	tagSingles
	tagProbe
)
