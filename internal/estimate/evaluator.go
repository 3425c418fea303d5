package estimate

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// tripleKey names one (machine, op, algorithm) triple — the unit a
// calibration fits and an evaluator handle compiles.
type tripleKey struct {
	mach string
	op   machine.Op
	alg  string
}

// cowMap is a copy-on-write map for key spaces that fill once and are
// then only read, like the triples: a read is one atomic load and a map
// lookup with no lock, so warm read paths scale across cores, and a
// miss publishes a new map under the writer lock.
type cowMap[K comparable, V any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[K]V]
}

// load returns the value under k, if present.
func (c *cowMap[K, V]) load(k K) (V, bool) {
	if m := c.m.Load(); m != nil {
		v, ok := (*m)[k]
		return v, ok
	}
	var zero V
	return zero, false
}

// publish stores v under k unless the map already holds a value keep
// accepts (keep nil accepts any), and returns the value now under k, so
// concurrent callers publishing one key all use the first value.
func (c *cowMap[K, V]) publish(k K, v V, keep func(V) bool) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var old map[K]V
	if p := c.m.Load(); p != nil {
		old = *p
	}
	if cur, ok := old[k]; ok && (keep == nil || keep(cur)) {
		return cur
	}
	next := make(map[K]V, len(old)+1)
	for kk, vv := range old {
		next[kk] = vv
	}
	next[k] = v
	c.m.Store(&next)
	return v
}

// calCell is one calibrated triple: its expression, fitted on first use
// exactly once, then read without a lock by Calibrated.Estimate and by
// every evaluator handle over the triple.
type calCell struct {
	once sync.Once
	done atomic.Bool
	c    *Calibrated
	mach *machine.Machine
	op   machine.Op
	alg  string // resolved (non-alias)
	expr fit.Expression
}

// fitted returns the triple's expression, calibrating it first when
// this is the triple's first use (concurrent callers wait for the one
// calibration).
func (cell *calCell) fitted() *fit.Expression {
	cell.once.Do(cell.fit)
	return &cell.expr
}

func (cell *calCell) fit() {
	defer cell.done.Store(true) // a panicking calibration spends the Once too
	cell.expr = cell.c.calibrate(cell.mach, cell.op, cell.alg)
}

// fitCells calibrates cells through a bounded worker pool; each worker
// claims the next cell with one atomic add.
func fitCells(cells []*calCell, workers int) {
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for _, cell := range cells {
			cell.fitted()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				cells[i].fitted()
			}
		}()
	}
	wg.Wait()
}

// Coverage says whether a registry entry can answer a triple in closed
// form at all; Evaluator.Covers adds the per-scenario envelope test.
type Coverage uint8

const (
	// Covered: the entry answers the triple's in-envelope scenarios in
	// closed form.
	Covered Coverage = iota
	// Uncovered: the entry has no expression for the (machine, op) pair,
	// or its envelope function disowns the pair.
	Uncovered
	// VendorOnly: a fixed expression set models vendor-default
	// algorithms only and the triple names another variant.
	VendorOnly
)

// Evaluator is a registry entry's compiled answer path for one
// (machine, op, algorithm) triple: the bound names, the fitted
// expression, the calibrated envelope, and the triple's row of the
// entry's error table, resolved once. Serving a scenario through it is
// an envelope test, one Predict, and a bound lookup over one row — no
// lock, no map lookup, no copy. Handles are immutable and cached on
// their Entry (see Entry.Resolve); a calibrated handle fits its
// expression on first use, exactly once, shared with
// Calibrated.Estimate.
type Evaluator struct {
	mach     *machine.Machine
	op       machine.Op
	alg      string // "default" or a validated variant
	algs     mpi.Algorithms
	backend  string
	coverage Coverage
	bounded  bool // false: no envelope, every scenario is in range
	rng      Range
	expr     *fit.Expression // fixed expression sets
	cell     *calCell        // calibrated sets
	// segmented marks piecewise calibrations, whose bounds are looked up
	// within the segment that answered.
	segmented bool
	row       BoundRow
	table     *ErrorTable // the Bounds the row came from, for staleness
}

// Machine, Op, Alg, and Algorithms are the triple's bound names: the
// machine preset, the operation, the algorithm ("default" or a
// validated variant), and the algorithm table the triple runs under.
func (ev *Evaluator) Machine() *machine.Machine  { return ev.mach }
func (ev *Evaluator) Op() machine.Op             { return ev.op }
func (ev *Evaluator) Alg() string                { return ev.alg }
func (ev *Evaluator) Algorithms() mpi.Algorithms { return ev.algs }

// Backend names the entry's backend: the Answer.Backend of every
// closed-form answer the handle produces.
func (ev *Evaluator) Backend() string { return ev.backend }

// Coverage reports whether the entry can answer the triple at all.
func (ev *Evaluator) Coverage() Coverage { return ev.coverage }

// Range returns the calibrated envelope; bounded is false when the entry
// declares none (every scenario is in range).
func (ev *Evaluator) Range() (rng Range, bounded bool) { return ev.rng, ev.bounded }

// Covers reports whether the entry answers (p, m) in closed form: the
// triple is covered and (p, m) lies inside the envelope.
func (ev *Evaluator) Covers(p, m int) bool {
	return ev.coverage == Covered && (!ev.bounded || ev.rng.Contains(p, m))
}

// Expression returns the triple's fitted expression, calibrating it on
// first use, or nil when the backend has no closed form (a simulator, a
// wrapped backend): such entries answer through Backend.Estimate.
func (ev *Evaluator) Expression() *fit.Expression {
	if ev.cell != nil {
		return ev.cell.fitted()
	}
	return ev.expr
}

// Segmented reports whether bounds must be confined to the protocol
// segment that answered (piecewise calibrations).
func (ev *Evaluator) Segmented() bool { return ev.segmented }

// Bounds returns the triple's (machine, op) row of the entry's error
// table; empty when the entry carries none.
func (ev *Evaluator) Bounds() BoundRow { return ev.row }

// ready reports whether Expression returns without calibrating.
func (ev *Evaluator) ready() bool { return ev.cell == nil || ev.cell.done.Load() }

// Prepare fits the not-yet-calibrated expressions behind evs through a
// bounded worker pool (workers ≤ 0 means GOMAXPROCS), so a cold batch
// calibrates its triples concurrently instead of behind first-touch
// scenario workers. It returns at once, allocating nothing, when every
// handle is ready.
func Prepare(evs []*Evaluator, workers int) {
	var cold []*calCell
	for _, ev := range evs {
		if !ev.ready() {
			cold = append(cold, ev.cell)
		}
	}
	if len(cold) == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fitCells(cold, workers)
}

// Resolve returns the entry's handle for one named (machine, op,
// algorithm) triple — the algorithm a registry variant, the "default"
// alias, or empty — binding the names and compiling the handle on
// first use (without calibrating). A name that does not resolve is a
// typed *UnknownNameError, never cached. Entries are immutable once
// serving (a hot reload swaps the whole registry), so a cached handle
// stays valid; a Bounds table attached during setup after a handle was
// built replaces it. Safe for concurrent use.
func (e *Entry) Resolve(machName, opName, algName string) (*Evaluator, error) {
	k := tripleKey{machName, machine.Op(opName), algName}
	if ev, ok := e.evaluators.load(k); ok && ev.table == e.Bounds {
		return ev, nil
	}
	mach, err := ResolveMachine(machName)
	if err != nil {
		return nil, err
	}
	op, err := ResolveOp(opName)
	if err != nil {
		return nil, err
	}
	alg, err := ResolveAlgorithm(mach, op, algName)
	if err != nil {
		return nil, err
	}
	// Compiled outside the map's lock: compile calls the entry's Ranges.
	ev := e.compile(mach, op, alg)
	return e.evaluators.publish(k, ev, func(cur *Evaluator) bool { return cur.table == e.Bounds }), nil
}

// compile builds one triple's handle: the fallback decisions that do
// not depend on (p, m), the envelope, the expression (or the calibrated
// cell that will hold it), and the error-table row.
func (e *Entry) compile(mach *machine.Machine, op machine.Op, alg string) *Evaluator {
	algs := mpi.DefaultAlgorithms(mach)
	if alg != defaultAlg {
		algs = algs.With(op, alg)
	}
	ev := &Evaluator{mach: mach, op: op, alg: alg, algs: algs, backend: e.Backend.Name(), table: e.Bounds}
	if a, ok := e.Backend.(*Analytic); ok {
		expr, ok := a.pr.Expression(mach.Name(), op)
		if !ok {
			ev.coverage = Uncovered
			return ev
		}
		// Fixed sets model the vendor-default algorithms only; naming the
		// default variant explicitly is fine, any other variant is a
		// question the set cannot answer.
		if alg != defaultAlg && alg != mpi.DefaultAlgorithms(mach).Get(op) {
			ev.coverage = VendorOnly
			return ev
		}
		ev.expr = &expr
	}
	if e.Ranges != nil {
		rng, ok := e.Ranges(mach, op)
		// A zero envelope contains no valid scenario (p ≥ 2): it is as
		// good as a disowned pair.
		if !ok || rng == (Range{}) {
			ev.coverage = Uncovered
			return ev
		}
		ev.bounded, ev.rng = true, rng
	}
	if c, ok := e.Backend.(*Calibrated); ok {
		ev.cell = c.cell(mach, op, alg)
		ev.segmented = c.Fit.Piecewise
	}
	ev.row = e.Bounds.Row(mach.Name(), op)
	return ev
}
