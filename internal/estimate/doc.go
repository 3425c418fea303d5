// Package estimate unifies the repository's prediction paths — the
// discrete-event simulator and the analytic evaluation of fitted timing
// expressions — behind one pluggable Backend interface, and names
// complete expression sets through a Registry the CLIs and the HTTP
// service resolve against.
//
// # Backends
//
// The paper's closing argument is a split: measure once to fit the
// Table 3 expressions, then predict collective performance at service
// speed without rerunning the machine. Three backends implement it:
//
//   - Sim measures through the full §2 benchmark procedure on the
//     simulated machine (slow, exact — the calibration and ground-truth
//     route).
//   - Analytic evaluates a fixed expression set (paper Table 3 or any
//     regenerated fit) in closed form (instant, no simulation).
//   - Calibrated fits expressions from a small seeded simulator sweep
//     per (machine, op, algorithm) triple, optionally persists them
//     through a content-keyed ExpressionStore, and then serves at
//     analytic speed with a measurable error bound.
//
// Every backend reports a Provenance — a hash of the data its numbers
// derive from — which the sweep cache folds into result keys, so
// distinct backends, expression sets, or calibration specs never
// cross-contaminate.
//
// # Calibration control
//
// Calibrated takes three orthogonal knobs. Config sets the measurement
// methodology (measure.Fast or measure.Paper). Planner bounds how much
// of the sizes×lengths grid a triple measures: the adaptive planner
// measures columns shortest-first plus the longest anchor and stops
// when consecutive refits agree within tolerance. Fit selects the
// expression family: the zero value fits the paper's affine model
// (fit.TwoStage); FitConfig{Piecewise: true} fits protocol-aware
// segments (fit.Piecewise), which closes the affine model's mid-length
// error gap and measures the full grid (the breakpoint probe needs
// every column, so the planner is ignored). All three are part of the
// backend's provenance and of every expression key, so changing any of
// them self-invalidates stale persisted fits.
//
// # Registry and error bounds
//
// Registry names complete expression sets as Entries (backend +
// calibrated envelope + validated error table). StandardRegistry
// assembles the stock family: paper-table3, refit-default,
// refit-adaptive, and refit-piecewise. An Entry's ErrorTable — built by
// `cmd/sweep -validate` and persisted in the sweep cache under the
// backend's provenance key — turns bare predictions into error-bounded
// ones; Bound (nearest validated length) and BoundIn (confined to a
// piecewise fit's serving segment) look bounds up per answer. Range and
// Entry.Covers delimit the calibrated (p, m) envelope so out-of-range
// requests can fall back to the simulator instead of extrapolating.
//
// # Evaluator handles
//
// Entry.Resolve compiles one immutable Evaluator per (entry, machine,
// op, algorithm) triple and caches it on the entry: the bound names,
// the fitted expression (for a Calibrated backend, the triple's
// calibration cell, fitted once on first use), the envelope, and the
// triple's BoundRow of the error table. A serving layer resolves each
// distinct triple of a batch once and then answers every scenario of
// it with an envelope test, one Predict, and a one-row bound lookup.
// Calibrated.Estimate reads the same cells without a lock.
//
// SampleMemo dedups identical simulator measurements process-wide
// (including in-flight ones), which is why a validation run simulates
// each grid cell exactly once even though the sim pass and the
// calibration sweep both request it.
package estimate
