// Package serve exposes the estimation engine over HTTP/JSON — the
// paper's closing promise ("predict collective performance without
// running the machine") as a queryable network service.
//
// # Endpoints
//
//	POST /v1/estimate   single scenario, a bare scenario array, or an
//	                    envelope {registry, scenarios:[...]}
//	GET  /v1/registry   the registered expression sets
//
// Every request selects a named expression set from an
// estimate.Registry (paper-table3, refit-default, refit-adaptive,
// refit-piecewise, or anything the embedding process registered).
//
// # How a batch is served
//
// Names are resolved once per distinct (machine, op, algorithm) triple
// of a request, not per scenario: a request-local memo maps each
// triple to the entry's immutable evaluator handle
// (estimate.Entry.Resolve), which carries the bound names, the fitted
// expression, the calibrated envelope, and the triple's row of the
// entry's error table, and is cached on the entry (a hot reload swaps
// the whole registry, so a handle is never stale). The distinct
// in-envelope triples of a cold batch calibrate concurrently first
// (estimate.Prepare), so a request never serializes behind one
// triple's first fit. The batch then fans out in contiguous chunks
// across a bounded worker pool; a closed-form scenario costs an
// envelope test, one fit.Expression.Predict, and a bound lookup over
// one row, with no lock, map lookup, or allocation. Fallback scenarios
// take the simulator path through the answer cache.
//
// # Honesty guarantees
//
// Three response features keep answers honest:
//
//   - expected_error: closed-form answers attach the relative-error
//     bound a `sweep -validate` run measured for that (machine, op, m)
//     cell — rel_median, rel_max, the validated basis_m the bound comes
//     from, and how many scenarios it pooled. Piecewise expression sets
//     confine the lookup to the protocol segment that produced the
//     answer (segment_m_min/segment_m_max on the bound), so a bound is
//     never borrowed across a regime boundary.
//   - fallback/fallback_reason: scenarios outside the expression set's
//     calibrated (p, m) envelope, pairs the set never fitted, and
//     algorithm variants a fixed set cannot distinguish are answered by
//     the exact simulator — flagged, never silently extrapolated.
//   - provenance: the response envelope and the X-Estimate-Registry/
//     X-Estimate-Backend/X-Estimate-Provenance headers identify the
//     expression set, backend, and calibration-spec hash (including the
//     fit family) that produced the numbers.
//
// Unknown machine/operation/algorithm/registry names are 400s listing
// the valid names (estimate.UnknownNameError). Responses are
// byte-stable for a fixed registry and golden-tested (testdata/).
package serve
