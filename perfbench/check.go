package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/mpi"
	"repro/internal/serve"
)

// servedEntry is the registry entry cmd/serve answers with by default.
const servedEntry = "refit-default"

// expect is the reference answer for one scenario.
type expect struct {
	micros   float64
	fallback bool
	reason   string
}

// reference answers scenarios the way a default `serve` process must:
// an in-process registry configured as cmd/serve's defaults are — a
// fresh SampleMemo, measure.Fast(), no sweep cache — and the exact
// simulator for out-of-envelope scenarios.
type reference struct {
	entry *estimate.Entry
	cal   *estimate.Calibrated

	mu    sync.Mutex
	machs map[string]*machine.Machine
}

// newReference builds the reference registry and fits every triple up
// front, reporting how long the fitting took.
func newReference() (*reference, time.Duration, error) {
	reg := estimate.StandardRegistry(estimate.RegistryConfig{Memo: estimate.NewSampleMemo()})
	entry, err := reg.Get(servedEntry)
	if err != nil {
		return nil, 0, err
	}
	cal, ok := entry.Backend.(*estimate.Calibrated)
	if !ok {
		return nil, 0, fmt.Errorf("%s is served by %s, not a calibrated backend", servedEntry, entry.Backend.Name())
	}
	ref := &reference{entry: entry, cal: cal, machs: map[string]*machine.Machine{}}
	t0 := time.Now()
	cal.Precalibrate(estimateTriples(allTriples()), 0)
	return ref, time.Since(t0), nil
}

func estimateTriples(ts []triple) []estimate.Triple {
	out := make([]estimate.Triple, len(ts))
	for i, t := range ts {
		out[i] = estimate.Triple{Machine: t.mach, Op: t.op, Alg: t.alg}
	}
	return out
}

// resolve binds a scenario's names as the service does.
func (r *reference) resolve(sc serve.Scenario) (*machine.Machine, machine.Op, mpi.Algorithms, error) {
	r.mu.Lock()
	mach, ok := r.machs[sc.Machine]
	if !ok {
		var err error
		if mach, err = estimate.ResolveMachine(sc.Machine); err != nil {
			r.mu.Unlock()
			return nil, "", mpi.Algorithms{}, err
		}
		r.machs[sc.Machine] = mach
	}
	r.mu.Unlock()
	op := machine.Op(sc.Op)
	algs := mpi.DefaultAlgorithms(mach)
	if sc.Algorithm != "" && sc.Algorithm != "default" {
		algs = algs.With(op, sc.Algorithm)
	}
	return mach, op, algs, nil
}

// expect returns the reference answer for sc. Out-of-envelope
// answers carry the flag and reason with NaN micros: simulating is
// costly, so fallback values are checked on a sample (see simulate).
func (r *reference) expect(sc serve.Scenario) (expect, error) {
	mach, op, algs, err := r.resolve(sc)
	if err != nil {
		return expect{}, err
	}
	if in, rng := r.entry.Covers(mach, op, sc.P, sc.M); !in {
		return expect{micros: math.NaN(), fallback: true,
			reason: fmt.Sprintf("p=%d m=%d is outside the calibrated range %s; answered by the exact simulator", sc.P, sc.M, rng)}, nil
	}
	est, err := r.cal.Estimate(context.Background(), mach, op, algs, sc.P, sc.M, measure.Fast())
	if err != nil {
		return expect{}, err
	}
	return expect{micros: est.Sample.Micros}, nil
}

// simulate runs the exact simulator on sc in-process.
func (r *reference) simulate(sc serve.Scenario) (float64, error) {
	mach, op, algs, err := r.resolve(sc)
	if err != nil {
		return 0, err
	}
	est, err := estimate.Sim{}.Estimate(context.Background(), mach, op, algs, sc.P, sc.M, measure.Fast())
	return est.Sample.Micros, err
}

// checkAnswer compares one served answer with its reference: micros
// bit for bit (calibration and simulation are deterministic, so any
// difference, one ulp included, is a wrong answer), the fallback flag,
// and the fallback reason. NaN reference micros skip the value check.
func checkAnswer(want expect, micros float64, fallback bool, reason string) error {
	if fallback != want.fallback || reason != want.reason {
		return fmt.Errorf("fallback %v %q, want %v %q", fallback, reason, want.fallback, want.reason)
	}
	if !math.IsNaN(want.micros) && math.Float64bits(micros) != math.Float64bits(want.micros) {
		return fmt.Errorf("micros %v (%#016x), want %v (%#016x)",
			micros, math.Float64bits(micros), want.micros, math.Float64bits(want.micros))
	}
	return nil
}

// failures counts and keeps the first few answer mismatches and
// request failures; every one counts against failed_frac.
type failures struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 10 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

func (f *failures) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}
