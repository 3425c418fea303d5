package estimate

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/paper"
)

// BackendCalibrated names the measure-then-model backend.
const BackendCalibrated = "calibrated"

// calibrationVersion is baked into expression keys and the backend
// provenance; bump it when the calibration procedure changes in a way
// the key fields do not capture. v2: keys carry the planner
// configuration (the adaptive planner changes which grid cells feed a
// fit). v3: keys carry the fit family (affine vs. piecewise), so every
// pre-piecewise *.expr.json entry self-invalidates and a piecewise
// backend can never serve an affine fit or vice versa.
const calibrationVersion = 3

// defaultAlg is the algorithm alias meaning "the machine's vendor table
// entry" (sweep.DefaultAlgorithm; spelled out here to avoid an import
// cycle). Triples calibrate under their resolved name, so the alias and
// its eponymous variant share one calibration.
const defaultAlg = "default"

// ExpressionStore persists fitted expressions under content keys, so a
// calibration survives across processes. *sweep.Cache implements it;
// a nil store just refits per process.
type ExpressionStore interface {
	// GetExpression returns the stored expression for key, if present
	// and intact.
	GetExpression(key string) (fit.Expression, bool)
	// PutExpression stores an expression under key; id is a
	// human-readable label for cache inspection.
	PutExpression(key, id string, e fit.Expression) error
}

// Planner controls how much of the sizes×lengths calibration grid a
// triple actually measures. The zero value measures the full cross
// product, which reproduces the pre-planner calibration bit for bit.
type Planner struct {
	// Adaptive, when true, measures message-length columns in
	// ascending order and stops as soon as refitting with one more
	// column moves no fitted coefficient by more than RelTol — the
	// calibration-planning ROADMAP item. Startup-only grids (barrier)
	// always measure fully.
	Adaptive bool `json:"adaptive"`
	// RelTol is the per-coefficient relative stability tolerance;
	// ≤ 0 means 0.02. A coefficient is stable when
	// |new−old| ≤ RelTol·max(|new|,|old|) + 1e-9 and its shape (p vs
	// log p) did not flip.
	RelTol float64 `json:"rel_tol"`
	// MinLengths is the number of message-length columns measured
	// before stability is first tested; ≤ 0 means 3. Values are clamped
	// to [2, len(lengths)].
	MinLengths int `json:"min_lengths"`
}

func (pl Planner) relTol() float64 {
	if pl.RelTol <= 0 {
		return 0.02
	}
	return pl.RelTol
}

// normalized canonicalizes the planner for provenance and cache keys:
// a disabled planner is the zero value whatever its other fields say
// (they have no effect), and an enabled one pins its defaults and the
// MinLengths lower clamp, so configurations that compute identically
// key identically. (MinLengths values above the grid's column count
// also compute identically but stay distinct here: the backend-level
// provenance cannot know the per-op column count.)
func (pl Planner) normalized() Planner {
	if !pl.Adaptive {
		return Planner{}
	}
	pl.RelTol = pl.relTol()
	if pl.MinLengths <= 0 {
		pl.MinLengths = 3
	} else if pl.MinLengths < 2 {
		pl.MinLengths = 2
	}
	return pl
}

func (pl Planner) minLengths(total int) int {
	n := pl.MinLengths
	if n <= 0 {
		n = 3
	}
	if n < 2 {
		n = 2
	}
	if n > total {
		n = total
	}
	return n
}

// FitConfig selects the expression family a triple's calibration fits.
// The zero value fits the paper's affine model (fit.TwoStage); enabling
// Piecewise fits protocol-aware segments (fit.Piecewise) instead, which
// closes the affine model's mid-length error gap. The configuration is
// part of the backend's provenance and of every expression key.
type FitConfig struct {
	// Piecewise, when true, fits K ≥ 1 affine segments per triple with
	// breakpoints detected by the consecutive-refit-delta probe and K
	// chosen by grid-validated error (see fit.Piecewise); K = 1 degrades
	// to the affine fit, so each triple individually keeps the simpler
	// model when it already fits.
	Piecewise bool `json:"piecewise"`
	// MaxSegments caps K; ≤ 0 means fit.PiecewiseOptions' default — no
	// cap beyond one segment per detected regime boundary.
	MaxSegments int `json:"max_segments"`
	// RelTol is the probe's breakpoint threshold; ≤ 0 means the
	// default (0.02).
	RelTol float64 `json:"rel_tol"`
}

// normalized canonicalizes the fit config for provenance and keys: a
// disabled config is the zero value whatever its other fields say, and
// an enabled one pins its defaults, so configurations that compute
// identically key identically.
func (fc FitConfig) normalized() FitConfig {
	if !fc.Piecewise {
		return FitConfig{}
	}
	if fc.MaxSegments < 0 {
		fc.MaxSegments = 0 // canonical "uncapped"
	}
	if fc.RelTol <= 0 {
		fc.RelTol = 0.02
	}
	return FitConfig{Piecewise: true, MaxSegments: fc.MaxSegments, RelTol: fc.RelTol}
}

// options returns the fit.Piecewise options the config denotes.
func (fc FitConfig) options() fit.PiecewiseOptions {
	n := fc.normalized()
	return fit.PiecewiseOptions{MaxSegments: n.MaxSegments, RelTol: n.RelTol}
}

// Calibrated is the measure-then-model backend: on the first request
// for a (machine, op, algorithm) triple it runs a small seeded sim
// sweep over the calibration grid, fits a Table 3-style expression with
// fit.TwoStage, persists it through Store (when set), and from then on
// serves that triple in closed form at analytic speed. Unlike Analytic
// it distinguishes registry algorithm variants, because each variant is
// calibrated separately; the "default" alias resolves to the vendor
// table entry and shares its calibration.
//
// The zero value calibrates over the paper's grid with the fast
// methodology, one triple at a time on demand. Precalibrate fits many
// triples up front through a bounded worker pool. Fields must not be
// mutated after the first Estimate call; Estimate itself is safe for
// concurrent use.
type Calibrated struct {
	// Config is the calibration methodology; the zero value means
	// measure.Fast().
	Config measure.Config
	// Sizes are the calibration machine sizes (capped per machine);
	// nil means paper.MachineSizes. Matching the evaluation grid's
	// sizes makes the startup fit exact at those sizes.
	Sizes []int
	// Lengths are the calibration message lengths; nil means
	// paper.MessageLengths. Barriers always calibrate at length 0.
	Lengths []int
	// Planner bounds the measured grid; the zero value measures it
	// fully. Piecewise calibrations (see Fit) always measure the full
	// grid — the breakpoint probe scans every column — so the planner is
	// ignored (and normalized away in provenance) when Fit.Piecewise is
	// set.
	Planner Planner
	// Fit selects the expression family fitted per triple; the zero
	// value is the paper's affine model.
	Fit FitConfig
	// Store, when non-nil, persists fitted expressions across
	// processes under content keys.
	Store ExpressionStore
	// Memo, when non-nil, dedups the calibration's individual
	// measurements with any other memo user (e.g. a Sim backend in the
	// same validation run).
	Memo *SampleMemo
	// Workers bounds Precalibrate's default pool; ≤ 0 means
	// runtime.GOMAXPROCS.
	Workers int
	// StoreHits and Refits count calibrations served from the expression
	// store vs fitted fresh (obs wiring; nil = uncounted). Set them
	// before the first Estimate call, like every other field.
	StoreHits, Refits *obs.Counter

	// cells holds one calCell per resolved triple; reads take no lock.
	cells cowMap[tripleKey, *calCell]
}

// Triple identifies one calibration unit for Precalibrate. Alg may be
// the "default" alias or empty for the vendor table entry.
type Triple struct {
	Machine *machine.Machine
	Op      machine.Op
	Alg     string
}

// Name returns "calibrated".
func (*Calibrated) Name() string { return BackendCalibrated }

// Provenance hashes the calibration spec (grid, methodology, planner,
// and fit family), so sweep-cache entries derived from one calibration
// never serve another.
func (c *Calibrated) Provenance() string {
	blob, err := json.Marshal(struct {
		V       int            `json:"v"`
		Sizes   []int          `json:"sizes"`
		Lengths []int          `json:"lengths"`
		Config  measure.Config `json:"config"`
		Planner Planner        `json:"planner"`
		Fit     FitConfig      `json:"fit"`
	}{calibrationVersion, c.Sizes, c.Lengths, c.config(), c.planner(), c.Fit.normalized()})
	if err != nil {
		panic(fmt.Sprintf("estimate: calibrated provenance: %v", err))
	}
	return hashJSON(blob)
}

// planner returns the normalized planner that actually governs
// calibration: piecewise fits measure the full grid, so their planner
// canonicalizes to the zero value and configurations that compute
// identically key identically.
func (c *Calibrated) planner() Planner {
	if c.Fit.normalized().Piecewise {
		return Planner{}
	}
	return c.Planner.normalized()
}

// Estimate serves (op, algs, p, m) on mach from the triple's fitted
// expression, calibrating it first if this is the triple's first use.
// A warm triple is one lock-free lookup and one Predict, so concurrent
// callers scale across cores. ctx is deliberately ignored: a
// calibration is a shared once-per-triple computation, and letting one
// request's deadline abort it would poison the triple for every later
// request sharing it. The error is always nil.
func (c *Calibrated) Estimate(_ context.Context, mach *machine.Machine, op machine.Op, algs mpi.Algorithms, p, m int, _ measure.Config) (Estimate, error) {
	// Predict clamps small negative fitted per-byte terms (non-physical
	// outside the calibrated range) and dispatches piecewise fits to the
	// segment covering m, exactly like model.Predictor.Time.
	t := c.cell(mach, op, algs.Get(op)).fitted().Predict(m, p)
	return closedForm(BackendCalibrated, mach.Name(), op, p, m, t), nil
}

// Expression returns the fitted expression for one (machine, op,
// algorithm) triple, calibrating or loading it on first use. The
// "default" alias (or an empty name) resolves to the machine's vendor
// table entry, sharing that variant's calibration.
func (c *Calibrated) Expression(mach *machine.Machine, op machine.Op, alg string) fit.Expression {
	return *c.cell(mach, op, alg).fitted()
}

// cell returns the triple's calibration cell, creating it (unfitted) on
// first sight. The "default" alias (or an empty name) resolves to the
// vendor table entry's cell.
func (c *Calibrated) cell(mach *machine.Machine, op machine.Op, alg string) *calCell {
	if alg == "" || alg == defaultAlg {
		alg = mpi.DefaultAlgorithms(mach).Get(op)
	}
	k := tripleKey{mach.Name(), op, alg}
	if cell, ok := c.cells.load(k); ok {
		return cell
	}
	return c.cells.publish(k, &calCell{c: c, mach: mach, op: op, alg: alg}, nil)
}

// Precalibrate fits every distinct triple (after default-alias
// resolution) through a bounded worker pool, so a sweep's cold
// calibration runs concurrently instead of triple by triple on first
// touch. workers ≤ 0 uses c.Workers, then GOMAXPROCS. Safe to call
// repeatedly; already-calibrated triples cost nothing.
func (c *Calibrated) Precalibrate(triples []Triple, workers int) {
	seen := map[*calCell]bool{}
	work := make([]*calCell, 0, len(triples))
	for _, tr := range triples {
		cell := c.cell(tr.Machine, tr.Op, tr.Alg)
		if !seen[cell] {
			seen[cell] = true
			work = append(work, cell)
		}
	}
	if workers <= 0 {
		workers = c.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fitCells(work, workers)
}

// Predictor calibrates every (machine, op) with the vendor-default
// algorithm table and returns an analytic predictor over the fits —
// the regenerated-Table 3 counterpart of model.FromPaper. Calibration
// runs through the Precalibrate pool.
func (c *Calibrated) Predictor(machines []*machine.Machine, ops []machine.Op) *model.Predictor {
	var triples []Triple
	for _, mach := range machines {
		for _, op := range ops {
			triples = append(triples, Triple{mach, op, defaultAlg})
		}
	}
	c.Precalibrate(triples, 0)
	exprs := map[string]map[machine.Op]fit.Expression{}
	for _, mach := range machines {
		algs := mpi.DefaultAlgorithms(mach)
		row := map[machine.Op]fit.Expression{}
		for _, op := range ops {
			row[op] = c.Expression(mach, op, algs.Get(op))
		}
		exprs[mach.Name()] = row
	}
	return model.New(exprs)
}

// Range returns the calibrated (p, m) envelope for one (machine, op) —
// the grid rectangle the triple's fits interpolate. ok is always true:
// the calibrated backend covers every registered operation. The
// signature matches Entry.Ranges so a registry entry can use the method
// value directly.
func (c *Calibrated) Range(mach *machine.Machine, op machine.Op) (Range, bool) {
	return envelope(c.sizesFor(mach), c.lengthsFor(op)), true
}

// calibrate runs the triple's calibration sweep (or loads a stored fit)
// and returns the expression. alg is already resolved.
func (c *Calibrated) calibrate(mach *machine.Machine, op machine.Op, alg string) fit.Expression {
	sizes := c.sizesFor(mach)
	lengths := c.lengthsFor(op)
	cfg := c.config()

	var key string
	if c.Store != nil {
		key = expressionKey(mach, op, alg, sizes, lengths, cfg, c.planner(), c.Fit.normalized())
		if e, ok := c.Store.GetExpression(key); ok {
			c.StoreHits.Inc()
			return e
		}
	}
	algs := mpi.DefaultAlgorithms(mach).With(op, alg)
	startupShape := paper.StartupShape(op)
	perByteShape := paper.PerByteShape(mach.Name(), op)
	var e fit.Expression
	switch {
	case c.Fit.Piecewise:
		// Piecewise fits measure the full grid: the breakpoint probe
		// needs every column, so the adaptive planner does not apply.
		d := c.Memo.Dataset(mach, op, algs, sizes, lengths, cfg)
		e = fit.Piecewise(d, startupShape, perByteShape, c.Fit.options())
	case c.Planner.Adaptive && len(lengths) > 2:
		e = c.adaptiveFit(mach, op, algs, sizes, lengths, cfg, startupShape, perByteShape)
	default:
		d := c.Memo.Dataset(mach, op, algs, sizes, lengths, cfg)
		e = fit.TwoStage(d, startupShape, perByteShape)
	}
	c.Refits.Inc()
	if c.Store != nil {
		id := fmt.Sprintf("%s/%s[%s] calibration", mach.Name(), op, alg)
		_ = c.Store.PutExpression(key, id, e) // best-effort, like sample caching
	}
	return e
}

// adaptiveFit measures message-length columns — every machine size per
// column — refitting after each one past the planner's minimum, and
// stops as soon as the fit stabilizes. The initial set is the shortest
// MinLengths−1 columns (they anchor the startup term) plus the longest
// column (it dominates the per-byte slope, and pinning it keeps a
// mid-range protocol switch — eager to rendezvous — from being
// extrapolated over); the remaining columns then join in ascending
// order until two consecutive fits agree within tolerance.
func (c *Calibrated) adaptiveFit(mach *machine.Machine, op machine.Op, algs mpi.Algorithms, sizes, lengths []int, cfg measure.Config, startupShape, perByteShape fit.FormKind) fit.Expression {
	d := &fit.Dataset{}
	measureColumn := func(m int) {
		for _, p := range sizes {
			d.Add(p, m, c.Memo.Measure(mach, op, algs, p, m, cfg).Micros)
		}
	}
	min := c.Planner.minLengths(len(lengths))
	for i := 0; i < min-1; i++ {
		measureColumn(lengths[i])
	}
	measureColumn(lengths[len(lengths)-1])
	prev := fit.TwoStage(d, startupShape, perByteShape)
	tol := c.Planner.relTol()
	for i := min - 1; i < len(lengths)-1; i++ {
		measureColumn(lengths[i])
		next := fit.TwoStage(d, startupShape, perByteShape)
		if fit.Stable(prev, next, tol) {
			return next
		}
		prev = next
	}
	return prev
}

func (c *Calibrated) config() measure.Config {
	if c.Config == (measure.Config{}) {
		return measure.Fast()
	}
	return c.Config
}

func (c *Calibrated) sizesFor(mach *machine.Machine) []int {
	sizes := c.Sizes
	if len(sizes) == 0 {
		sizes = paper.MachineSizes(mach.Name())
	}
	out := make([]int, 0, len(sizes))
	for _, p := range sizes {
		if p >= 2 && p <= mach.MaxNodes() {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		panic(fmt.Sprintf("estimate: no calibration sizes within 2..%d for %s",
			mach.MaxNodes(), mach.Name()))
	}
	return out
}

// lengthsFor returns the calibration lengths for op, sorted ascending
// and deduplicated: the fit is order-independent, but the adaptive
// planner's column schedule (shortest first, longest anchor) and the
// canonical expression key both rely on the normalized order.
func (c *Calibrated) lengthsFor(op machine.Op) []int {
	if op == machine.OpBarrier {
		return []int{0}
	}
	if len(c.Lengths) == 0 {
		return paper.MessageLengths()
	}
	lengths := append([]int(nil), c.Lengths...)
	sort.Ints(lengths)
	out := lengths[:0]
	for i, m := range lengths {
		if i == 0 || m != lengths[i-1] {
			out = append(out, m)
		}
	}
	return out
}

// expressionKey is the content key of one triple's fit: identical
// calibration inputs — machine constants, operation, resolved
// algorithm, grid, methodology, planner, fit family — always produce
// the same key, and any drift produces a different one.
func expressionKey(mach *machine.Machine, op machine.Op, alg string, sizes, lengths []int, cfg measure.Config, pl Planner, fc FitConfig) string {
	blob, err := json.Marshal(struct {
		V           int            `json:"v"`
		Calibration string         `json:"calibration"`
		Op          machine.Op     `json:"op"`
		Alg         string         `json:"alg"`
		Sizes       []int          `json:"sizes"`
		Lengths     []int          `json:"lengths"`
		Config      measure.Config `json:"config"`
		Planner     Planner        `json:"planner"`
		Fit         FitConfig      `json:"fit"`
	}{calibrationVersion, Fingerprint(mach), op, alg, sizes, lengths, cfg, pl, fc})
	if err != nil {
		panic(fmt.Sprintf("estimate: expression key %s/%s[%s]: %v", mach.Name(), op, alg, err))
	}
	return hashJSON(blob)
}
