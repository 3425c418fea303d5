// Command experiments runs the entire reproduction — every figure and
// table of the paper plus all quoted spot values — and writes
// EXPERIMENTS.md with paper-vs-measured numbers, or prints one paper
// artifact to stdout.
//
// Every artifact reads one T(m, p) grid per run. Only the grid points
// the requested output reads are measured, each once, in one sharded
// sweep that the -cache directory can serve across runs, so the
// document and the artifacts are self-consistent.
//
// Usage:
//
//	experiments                       # write EXPERIMENTS.md (fast methodology)
//	experiments -paper                # paper-faithful k=20 × 5 reps (slow)
//	experiments -out /tmp/e.md
//	experiments -artifact fig1        # startup latencies (Fig. 1)
//	experiments -artifact table3      # refit the timing expressions
//	experiments -artifact spot        # the paper's quoted spot values
//	experiments -artifact all         # every figure, table and spot value
//	experiments -artifact fig2 -csv   # CSV for external plotting
//	experiments -artifact all -maxp 32
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/estimate"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/paper"
	"repro/internal/stats"
	"repro/internal/sweep"
)

func main() {
	var (
		out      = flag.String("out", "EXPERIMENTS.md", "output path")
		paperCfg = flag.Bool("paper", false, "paper-faithful methodology (k=20, 5 reps; slow)")
		cacheDir = flag.String("cache", "", "directory for grid CSV cache (reused across runs)")
		backendF = flag.String("backend", "sim", "estimation backend: sim (measure the grid), calibrated (fit once, serve closed-form), or analytic (paper expressions — a self-consistency run)")
		artifact = flag.String("artifact", "", "print one paper artifact to stdout instead of writing -out: fig1..fig5, table3, spot, or all")
		csv      = flag.Bool("csv", false, "with -artifact fig1..fig3, emit CSV instead of tables")
		maxP     = flag.Int("maxp", 0, "cap the machine-size sweep of the figures and the Table 3 refit (0 = paper sweep)")
	)
	flag.Parse()

	cfg := measure.Fast()
	method := "fast (warm-up 1, k=3, 2 executions)"
	if *paperCfg {
		cfg = measure.Paper()
		method = "paper-faithful (warm-up 2, k=20, 5 executions)"
	}
	cache, err := sweep.OpenCache(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "  disabling cache: %v\n", err)
		cache = nil
	}
	var backend estimate.Backend
	switch *backendF {
	case "sim", "":
		backend = estimate.Sim{}
	case "analytic":
		backend = estimate.PaperAnalytic()
	case "calibrated":
		cal := &estimate.Calibrated{Config: cfg}
		if cache != nil {
			// The same directory persists the fitted expressions, so a
			// warm process never refits what a previous run calibrated.
			cal.Store = cache
		}
		backend = cal
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown backend %q\n", *backendF)
		os.Exit(2)
	}
	method += fmt.Sprintf("; %s backend", backend.Name())
	g := newGrid(cfg, backend, cache, *maxP)

	if *artifact != "" {
		g.prefetch(func() { err = writeArtifact(io.Discard, g, *artifact, *csv) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		writeArtifact(os.Stdout, g, *artifact, *csv)
		return
	}

	start := time.Now()
	g.prefetch(func() { writeDoc(io.Discard, g, method, 0) })
	var b strings.Builder
	writeDoc(&b, g, method, time.Since(start))
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes) in %s\n", *out, b.Len(), time.Since(start).Round(time.Second))
}

// writeDoc renders EXPERIMENTS.md from g; built is the grid build time
// the header reports.
func writeDoc(out io.Writer, g *grid, method string, built time.Duration) {
	w := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }

	w("# EXPERIMENTS — paper vs reproduction")
	w("")
	w("Generated by `go run ./cmd/experiments` (methodology: %s; grid", method)
	w("build time %s). Machines are simulated; DESIGN.md §2 records the", built.Round(time.Second))
	w("substitutions. `ratio` is always measured/paper. Absolute agreement is")
	w("calibrated (Table 3 is the only surviving ground truth); the claims to")
	w("check are the *shapes*: who wins, where, by roughly how much.")
	w("")

	var ratios []float64

	// ---- Table 3 -----------------------------------------------------
	w("## Table 3 — fitted timing expressions")
	w("")
	w("| machine | op | paper | refit from simulator |")
	w("|---|---|---|---|")
	for _, r := range g.table3() {
		w("| %s | %s | `%s` | `%s` |", r.mach, r.op, r.paper.String(), r.fitted.String())
	}
	w("")
	w("Startup shapes (linear in p for gather/scatter/total exchange,")
	w("logarithmic for barrier/broadcast/reduce/scan) are selected by the")
	w("fit's own residual comparison, not imposed — matching §8.")
	w("")

	// ---- Fig. 1 -------------------------------------------------------
	w("## Figure 1 — startup latencies T0(p) (µs)")
	w("")
	for _, op := range machine.Ops {
		w("### %s", op)
		w("")
		w("| p | SP2 meas | SP2 paper | T3D meas | T3D paper | Paragon meas | Paragon paper |")
		w("|---|---|---|---|---|---|---|")
		for _, p := range []int{2, 8, 32, 64, 128} {
			row := fmt.Sprintf("| %d |", p)
			for _, m := range machine.All() {
				if p > m.MaxNodes() {
					row += " - | - |"
					continue
				}
				pe, _ := paper.Expression(m.Name(), op)
				meas := g.t0(m.Name(), op, p)
				want := pe.EvalStartup(p)
				row += fmt.Sprintf(" %.1f | %.1f |", meas, want)
				if want > 0 && meas > 0 {
					ratios = append(ratios, meas/want)
				}
			}
			w("%s", row)
		}
		w("")
	}

	// ---- Fig. 2 -------------------------------------------------------
	w("## Figure 2 — T(m, 32) vs message length (µs)")
	w("")
	for _, op := range paper.SixOps {
		w("### %s (p=32)", op)
		w("")
		w("| m (bytes) | SP2 meas | SP2 paper | T3D meas | T3D paper | Paragon meas | Paragon paper |")
		w("|---|---|---|---|---|---|---|")
		for _, m := range []int{4, 256, 1024, 16384, 65536} {
			row := fmt.Sprintf("| %d |", m)
			for _, mach := range machine.All() {
				pe, _ := paper.Expression(mach.Name(), op)
				meas := g.at(mach.Name(), op, 32, m)
				want := pe.Eval(m, 32)
				row += fmt.Sprintf(" %.0f | %.0f |", meas, want)
				if want > 0 && meas > 0 {
					ratios = append(ratios, meas/want)
				}
			}
			w("%s", row)
		}
		w("")
	}

	// ---- Fig. 3 -------------------------------------------------------
	w("## Figure 3 — T(m, p) vs machine size, short (16 B) and long (64 KB)")
	w("")
	for _, m := range []int{16, 65536} {
		w("### m = %d bytes (µs; winner per row in bold claim below)", m)
		w("")
		w("| p | SP2 | T3D | Paragon | fastest |")
		w("|---|---|---|---|---|")
		for _, p := range []int{2, 8, 32, 64, 128} {
			sp2 := math.NaN()
			if p <= 128 {
				sp2 = g.at("SP2", machine.OpAlltoall, p, m)
			}
			t3d := math.NaN()
			if p <= 64 {
				t3d = g.at("T3D", machine.OpAlltoall, p, m)
			}
			par := g.at("Paragon", machine.OpAlltoall, p, m)
			best := "SP2"
			bv := sp2
			if !math.IsNaN(t3d) && t3d < bv {
				best, bv = "T3D", t3d
			}
			if par < bv {
				best = "Paragon"
			}
			t3ds := "-"
			if !math.IsNaN(t3d) {
				t3ds = fmt.Sprintf("%.0f", t3d)
			}
			w("| %d | %.0f | %s | %.0f | %s |", p, sp2, t3ds, par, best)
		}
		w("")
	}
	w("(total exchange shown; the full per-op series print via `go run ./cmd/experiments -artifact fig3`)")
	w("")

	// ---- Fig. 4 -------------------------------------------------------
	w("## Figure 4 — startup/transmission breakdown (p=32, m=1 KB, µs)")
	w("")
	w("| machine | op | T0 meas | D meas | total meas | total paper | ratio |")
	w("|---|---|---|---|---|---|---|")
	for _, r := range g.fig4() {
		pe, _ := paper.Expression(r.mach, r.op)
		want := pe.Eval(1024, 32)
		w("| %s | %s | %.1f | %.1f | %.1f | %.1f | %.2f |",
			r.mach, r.op, r.startup, r.total-r.startup, r.total, want, r.total/want)
		ratios = append(ratios, r.total/want)
	}
	w("")
	w("§7 highlights: the Paragon's total-exchange and gather startups at")
	w("p=32 (paper: 3857 µs and 2918 µs) measure %.0f µs and %.0f µs here.",
		g.t0("Paragon", machine.OpAlltoall, 32), g.t0("Paragon", machine.OpGather, 32))
	w("")

	// ---- Fig. 5 -------------------------------------------------------
	w("## Figure 5 — aggregated bandwidths R∞(p) (MB/s)")
	w("")
	w("| machine | op | p=16 meas | p=16 paper | p=32 meas | p=32 paper | p=64 meas | p=64 paper |")
	w("|---|---|---|---|---|---|---|---|")
	for _, op := range paper.SixOps {
		for _, m := range machine.All() {
			row := fmt.Sprintf("| %s | %s |", m.Name(), op)
			pe, _ := paper.Expression(m.Name(), op)
			for _, p := range paper.Fig5Sizes {
				meas := g.bandwidth(m.Name(), op, p, g.lengths)
				want := paper.AggregatedBandwidthMBs(pe, op, p)
				row += fmt.Sprintf(" %.0f | %.0f |", meas, want)
				if want > 0 && meas > 0 {
					ratios = append(ratios, meas/want)
				}
			}
			w("%s", row)
		}
	}
	w("")

	// ---- Spot values ---------------------------------------------------
	w("## Quoted spot values")
	w("")
	w("| where | check | paper | measured | ratio |")
	w("|---|---|---|---|---|")
	for _, sv := range spotValues() {
		meas := g.spot(sv)
		w("| %s | %s %s p=%d | %.0f %s | %.0f | %.2f |",
			sv.Where, sv.Machine, sv.Op, sv.P, sv.Value, sv.Unit, meas, meas/sv.Value)
		ratios = append(ratios, meas/sv.Value)
	}
	w("")

	// ---- Shape claims ---------------------------------------------------
	w("## Headline shape claims")
	w("")
	for _, c := range claims {
		summary, failures := c.eval(g)
		mark := "PASS"
		if len(failures) > 0 {
			mark = "FAIL"
			summary += "; " + strings.Join(failures, "; ")
		}
		w("- **%s** — %s (%s)", mark, c.text, summary)
	}
	w("")

	// ---- Point-to-point / Hockney ---------------------------------------
	w("## Point-to-point characterization (Hockney model)")
	w("")
	w("The paper contrasts its aggregated bandwidth R∞(p) with Hockney's")
	w("point-to-point asymptotic bandwidth (§9). Ping-pong over the")
	w("simulated machines gives:")
	w("")
	w("| machine | t0 (µs) | r∞ (MB/s) | n½ (bytes) | raw link (MB/s) |")
	w("|---|---|---|---|---|")
	for _, m := range machine.All() {
		h := measure.HockneyFit(m, g.cfg)
		w("| %s | %.1f | %.1f | %.0f | %.0f |", m.Name(),
			h.T0Micros, h.RInfMBs, h.NHalf(), m.Params().Net.LinkBandwidthMBs)
	}
	w("")
	w("The software-limited r∞ sits far below the raw link rates — the gap")
	w("the paper attributes to messaging-layer overhead — and differs from")
	w("the per-collective effective rates of Table 3, which is exactly why")
	w("the paper argues per-collective aggregated bandwidth is the metric")
	w("that matters.")
	w("")

	// ---- Aggregate ------------------------------------------------------
	w("## Aggregate agreement")
	w("")
	var filtered []float64
	for _, r := range ratios {
		if r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r) {
			filtered = append(filtered, r)
		}
	}
	s := stats.Summarize(filtered)
	w("Across %d paper-comparable points: geometric-mean ratio %.2f,", s.N, stats.GeoMean(filtered))
	w("median %.2f, min %.2f, max %.2f.", stats.Median(filtered), s.Min, s.Max)
	w("")
	w("## Known deviations")
	w("")
	w("- **Paragon scatter, long messages** — Table 3's per-byte rate")
	w("  (1/0.0031 ≈ 322 MB/s) exceeds the Paragon's physical 175 MB/s link;")
	w("  the simulator is capped at the link rate, so it runs ≈1.5× slower")
	w("  than the fit at 64 KB.")
	w("- **T3D scatter per-byte constant** — the paper's (0.0057p + 0.16)m has")
	w("  a dominant constant term no root-rate model reproduces; calibration")
	w("  splits the difference across p = 32…64 (±30%%).")
	w("- **Scan per-byte shape** — the paper fits scan's per-byte term as")
	w("  linear in p; our recursive-doubling implementation produces log-p")
	w("  growth with matched magnitude at p = 32…64.")
	w("- The abstract's 675 ms upper bound for 64 KB × 64-node operations is")
	w("  a measured outlier the paper's own fits understate (their maximum is")
	w("  ≈347 ms for the SP2 total exchange); we reproduce the fit, not the")
	w("  outlier.")
}
