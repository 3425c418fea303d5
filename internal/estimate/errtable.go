package estimate

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/machine"
)

// errorTableVersion is baked into ErrorTableKey; bump it when the table
// semantics change in a way the key fields do not capture.
const errorTableVersion = 1

// ErrorTable records the observed accuracy of a closed-form backend
// against the simulator, per (machine, op, message length) cell — the
// data behind the validation report's error matrix, in a loadable form.
// Attached to a registry entry it turns bare predictions into
// error-bounded ones: (value, expected relative error).
type ErrorTable struct {
	// Backend and Provenance identify the candidate backend the errors
	// were measured for; a table never describes a backend with a
	// different provenance (a recalibration invalidates it).
	Backend    string `json:"backend"`
	Provenance string `json:"provenance"`
	// Cells are sorted by (machine, op, m) so the table serializes
	// deterministically.
	Cells []ErrorCell `json:"cells"`
}

// ErrorCell is one (machine, op, m) slice of a validation: the relative
// errors of every validated scenario in the cell (machine sizes and
// algorithm variants pooled), summarized.
type ErrorCell struct {
	Machine string     `json:"machine"`
	Op      machine.Op `json:"op"`
	M       int        `json:"m"`
	// Median and Max are the cell's relative-error summary
	// (|estimate − sim| / sim over the headline time).
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	// Points is how many validated scenarios the cell pools.
	Points int `json:"points"`
}

// Bound returns the cell covering (mach, op, m): the exact cell when the
// validation grid contained that message length, otherwise the cell with
// the nearest length on a log scale (closed-form error varies smoothly
// in m, so the neighbor is the honest stand-in). ok is false when the
// table has no (machine, op) rows at all. A nil table bounds nothing.
// Serving paths look bounds up through Row once per triple instead.
func (t *ErrorTable) Bound(mach string, op machine.Op, m int) (ErrorCell, bool) {
	return t.Row(mach, op).Bound(m)
}

// BoundIn is Bound constrained to validated lengths within [lo, hi] —
// the lookup the serving layer uses for piecewise answers, so the
// expected error annotated on an answer is measured on the same
// protocol segment that produced the number, never borrowed across a
// regime boundary. When no cell lies inside the range (a validation
// sparser than the calibration grid) it falls back to the
// unconstrained nearest-length lookup.
func (t *ErrorTable) BoundIn(mach string, op machine.Op, m, lo, hi int) (ErrorCell, bool) {
	return t.Row(mach, op).BoundIn(m, lo, hi)
}

// BoundRow is one (machine, op) row of an error table, its cells in
// table order. Bound and BoundIn over a row answer exactly what the
// table's lookups answer for that pair, scanning only the row.
type BoundRow []ErrorCell

// Row returns the table's cells for (mach, op), copied; a nil table has
// an empty row.
func (t *ErrorTable) Row(mach string, op machine.Op) BoundRow {
	if t == nil {
		return nil
	}
	var row BoundRow
	for _, c := range t.Cells {
		if c.Machine == mach && c.Op == op {
			row = append(row, c)
		}
	}
	return row
}

// Bound is ErrorTable.Bound over the row.
func (r BoundRow) Bound(m int) (ErrorCell, bool) {
	return r.nearest(m, 0, math.MaxInt)
}

// BoundIn is ErrorTable.BoundIn over the row.
func (r BoundRow) BoundIn(m, lo, hi int) (ErrorCell, bool) {
	if c, ok := r.nearest(m, lo, hi); ok {
		return c, true
	}
	return r.Bound(m)
}

// nearest is the one nearest-cell scan behind Bound and BoundIn: the
// exact cell when a validated length in [lo, hi] matches m, otherwise
// the in-range cell with the nearest length on a log scale (the first
// such cell on ties).
func (r BoundRow) nearest(m, lo, hi int) (ErrorCell, bool) {
	var best ErrorCell
	bestDist := math.Inf(1)
	found := false
	for _, c := range r {
		if c.M < lo || c.M > hi {
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

// logDist measures how far apart two message lengths are on a log
// scale, shifted by one so zero-length (barrier) cells compare cleanly.
func logDist(a, b int) float64 {
	return math.Abs(math.Log(float64(a)+1) - math.Log(float64(b)+1))
}

// ErrorTableKey is the content key an error table is persisted under:
// the candidate backend's identity and provenance, so a table written by
// one validation run is found by any process constructing the same
// backend — and silently missed by one whose calibration spec drifted.
func ErrorTableKey(b Backend) string {
	blob, err := json.Marshal(struct {
		V          int    `json:"v"`
		Backend    string `json:"backend"`
		Provenance string `json:"provenance"`
	}{errorTableVersion, b.Name(), b.Provenance()})
	if err != nil {
		panic(fmt.Sprintf("estimate: error table key %s: %v", b.Name(), err))
	}
	return hashJSON(blob)
}

// Describes reports whether the table was measured for b (same backend
// name and provenance) — the match AttachBounds enforces before wiring a
// table to a registry entry.
func (t *ErrorTable) Describes(b Backend) bool {
	return t != nil && t.Backend == b.Name() && t.Provenance == b.Provenance()
}
