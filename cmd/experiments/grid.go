package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/estimate"
	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/sweep"
)

// point is one T(m, p) grid coordinate, measured under the machine's
// vendor algorithm table.
type point struct {
	mach string
	op   machine.Op
	p, m int
}

// grid is the measured T(m, p) grid that every artifact, table and
// shape claim reads. It fills on demand: prefetch measures all the
// points a rendering reads in one sharded, cached sweep, so each grid
// point is measured once per run however many artifacts read it.
type grid struct {
	cfg     measure.Config
	backend estimate.Backend
	cache   *sweep.Cache
	maxP    int   // caps the machine-size sweep; 0 keeps the paper's
	lengths []int // message-length sweep of Figs. 2 and 5 and Table 3
	vals    map[point]float64
	// missed is non-nil while prefetch records: at then notes every
	// point it lacks and answers a placeholder instead of measuring.
	missed map[point]bool
}

func newGrid(cfg measure.Config, backend estimate.Backend, cache *sweep.Cache, maxP int) *grid {
	return &grid{
		cfg: cfg, backend: backend, cache: cache, maxP: maxP,
		lengths: paper.MessageLengths(),
		vals:    map[point]float64{},
	}
}

// prefetch runs render once in recording mode, then measures every
// point it read that g lacks through one sweep.Runner pass — sharded
// across cores and served from the cache where possible. render must
// only read g and write output it is free to discard.
func (g *grid) prefetch(render func()) {
	g.missed = map[point]bool{}
	render()
	pts := make([]point, 0, len(g.missed))
	for pt := range g.missed {
		pts = append(pts, pt)
	}
	g.missed = nil
	if len(pts) == 0 {
		return
	}
	scns := make([]sweep.Scenario, len(pts))
	for i, pt := range pts {
		scns[i] = sweep.Scenario{
			Machine: pt.mach, Op: pt.op, Algorithm: sweep.DefaultAlgorithm,
			P: pt.p, M: pt.m, Config: g.cfg,
		}
	}
	fmt.Fprintf(os.Stderr, "  measuring %d grid points\n", len(scns))
	for i, r := range (&sweep.Runner{Cache: g.cache, Backend: g.backend}).Run(scns) {
		g.vals[pts[i]] = r.Sample.Micros
	}
}

// at returns T(m, p) in µs for one machine and operation. Outside
// recording, the point must have been prefetched.
func (g *grid) at(mach string, op machine.Op, p, m int) float64 {
	pt := point{mach, op, p, m}
	if v, ok := g.vals[pt]; ok {
		return v
	}
	if g.missed == nil {
		panic(fmt.Sprintf("experiments: %s/%s p=%d m=%d read without a prefetch", mach, op, p, m))
	}
	g.missed[pt] = true
	return 1
}

// payload is the message length an operation runs at: m, except for
// the barrier, which carries none.
func payload(op machine.Op, m int) int {
	if op == machine.OpBarrier {
		return 0
	}
	return m
}

// t0 is the paper's startup estimate: the shortest-message timing.
func (g *grid) t0(mach string, op machine.Op, p int) float64 {
	return g.at(mach, op, p, payload(op, 4))
}

// bandwidth estimates the aggregated bandwidth R∞(p) = f(m,p)/(s(p)·m)
// in MB/s, where s(p) is the per-byte slope fitted through the origin
// to T(m, p) − T(lengths[0], p) over the remaining lengths.
func (g *grid) bandwidth(mach string, op machine.Op, p int, lengths []int) float64 {
	base := g.at(mach, op, p, lengths[0])
	var xs, ys []float64
	for _, m := range lengths[1:] {
		xs = append(xs, float64(m-lengths[0]))
		ys = append(ys, g.at(mach, op, p, m)-base)
	}
	slope, _ := fit.ThroughOrigin(xs, ys) // µs per byte
	if slope <= 0 {
		return 0
	}
	return paper.AggregatedMultiplier(op, p) / slope
}

// sizes is the machine-size sweep for m, capped at maxP when set.
func (g *grid) sizes(m *machine.Machine) []int {
	var out []int
	for _, p := range paper.MachineSizes(m.Name()) {
		if g.maxP <= 0 || p <= g.maxP {
			out = append(out, p)
		}
	}
	return out
}

// fig1 reproduces Figure 1: startup latencies T0(p) of the six payload
// collectives, one figure per operation with one series per machine.
func (g *grid) fig1() []report.Figure {
	var figs []report.Figure
	for _, op := range paper.SixOps {
		f := report.Figure{Title: fmt.Sprintf("Fig. 1 (%s): startup latency T0(p)", op), XLabel: "p", YLabel: "µs"}
		for _, m := range machine.All() {
			s := report.Series{Label: m.Name()}
			for _, p := range g.sizes(m) {
				s.X = append(s.X, p)
				s.Y = append(s.Y, g.t0(m.Name(), op, p))
			}
			f.Series = append(f.Series, s)
		}
		figs = append(figs, f)
	}
	return figs
}

// fig2 reproduces Figure 2: T(m, 32) of the six payload collectives as
// a function of message length.
func (g *grid) fig2() []report.Figure {
	const p = 32
	var figs []report.Figure
	for _, op := range paper.SixOps {
		f := report.Figure{Title: fmt.Sprintf("Fig. 2 (%s): messaging time T(m, 32)", op), XLabel: "m (bytes)", YLabel: "µs"}
		for _, m := range machine.All() {
			if p > m.MaxNodes() {
				continue
			}
			s := report.Series{Label: m.Name()}
			for _, msg := range g.lengths {
				s.X = append(s.X, msg)
				s.Y = append(s.Y, g.at(m.Name(), op, p, msg))
			}
			f.Series = append(f.Series, s)
		}
		figs = append(figs, f)
	}
	return figs
}

// fig3 reproduces Figure 3: T(m, p) against machine size for short
// (16 B) and long (64 KB) messages, for all seven operations.
func (g *grid) fig3() []report.Figure {
	art := paper.ArtifactByID("fig3")
	var figs []report.Figure
	for _, op := range art.Ops {
		f := report.Figure{Title: fmt.Sprintf("Fig. 3 (%s): messaging time vs machine size", op), XLabel: "p", YLabel: "µs"}
		for _, m := range machine.All() {
			lengths := art.FixedM
			if op == machine.OpBarrier {
				lengths = []int{0}
			}
			for _, msg := range lengths {
				s := report.Series{Label: fmt.Sprintf("%s m=%d", m.Name(), msg)}
				if op == machine.OpBarrier {
					s.Label = m.Name()
				}
				for _, p := range g.sizes(m) {
					s.X = append(s.X, p)
					s.Y = append(s.Y, g.at(m.Name(), op, p, msg))
				}
				f.Series = append(f.Series, s)
			}
		}
		figs = append(figs, f)
	}
	return figs
}

// fig4Row is one bar of Figure 4: an operation on one machine at p=32,
// m=1 KB, split into startup T0 and the rest of the total (µs).
type fig4Row struct {
	mach           string
	op             machine.Op
	startup, total float64
}

// fig4 reproduces Figure 4's startup/transmission breakdown bars.
func (g *grid) fig4() []fig4Row {
	var rows []fig4Row
	for _, op := range paper.SixOps {
		for _, m := range machine.All() {
			rows = append(rows, fig4Row{m.Name(), op, g.t0(m.Name(), op, 32), g.at(m.Name(), op, 32, 1024)})
		}
	}
	return rows
}

// fig5Row is one bar of Figure 5: the aggregated bandwidth R∞(p) of an
// operation on one machine at one size (MB/s).
type fig5Row struct {
	mach string
	op   machine.Op
	p    int
	mbs  float64
}

// fig5 reproduces Figure 5: aggregated bandwidths at p ∈ {16, 32, 64},
// from the per-byte slope of the length sweep.
func (g *grid) fig5() []fig5Row {
	var rows []fig5Row
	for _, op := range paper.SixOps {
		for _, m := range machine.All() {
			for _, p := range paper.Fig5Sizes {
				if p <= m.MaxNodes() {
					rows = append(rows, fig5Row{m.Name(), op, p, g.bandwidth(m.Name(), op, p, g.lengths)})
				}
			}
		}
	}
	return rows
}

// table3Row pairs the paper's Table 3 expression for one machine and
// operation with the one refit from the grid.
type table3Row struct {
	mach          string
	op            machine.Op
	paper, fitted fit.Expression
}

// table3 refits every Table 3 timing expression from the grid's
// size × length sweep with the paper's two-stage fit.
func (g *grid) table3() []table3Row {
	var rows []table3Row
	for _, m := range machine.All() {
		for _, op := range machine.Ops {
			lengths := g.lengths
			if op == machine.OpBarrier {
				lengths = []int{0}
			}
			d := &fit.Dataset{}
			for _, p := range g.sizes(m) {
				for _, msg := range lengths {
					d.Add(p, msg, g.at(m.Name(), op, p, msg))
				}
			}
			pe, _ := paper.Expression(m.Name(), op)
			rows = append(rows, table3Row{m.Name(), op, pe,
				fit.TwoStage(d, paper.StartupShape(op), paper.PerByteShape(m.Name(), op))})
		}
	}
	return rows
}

// spot measures one number the paper quotes in prose.
func (g *grid) spot(sv paper.SpotValue) float64 {
	switch {
	case sv.Unit == "MB/s":
		return g.bandwidth(sv.Machine, sv.Op, sv.P, g.lengths)
	case sv.M <= 0:
		return g.t0(sv.Machine, sv.Op, sv.P)
	}
	return g.at(sv.Machine, sv.Op, sv.P, sv.M)
}

// spotValues lists the paper's quoted values within each machine's
// allocation.
func spotValues() []paper.SpotValue {
	var out []paper.SpotValue
	for _, sv := range paper.Reported {
		if sv.P <= machine.ByName(sv.Machine).MaxNodes() {
			out = append(out, sv)
		}
	}
	return out
}

// writeArtifact prints one paper artifact — fig1…fig5, table3, spot, or
// all of them — as aligned text; csv switches fig1…fig3 to CSV.
func writeArtifact(w io.Writer, g *grid, id string, csv bool) error {
	figures := func(figs []report.Figure) {
		for _, f := range figs {
			if csv {
				f.WriteCSV(w)
			} else {
				f.WriteTable(w)
			}
			fmt.Fprintln(w)
		}
	}
	switch id {
	case "fig1":
		figures(g.fig1())
	case "fig2":
		figures(g.fig2())
	case "fig3":
		figures(g.fig3())
	case "fig4":
		fmt.Fprintln(w, "Fig. 4: startup (#) / transmission (·) breakdown (p=32, m=1 KB)")
		var bars []report.Bar
		for _, r := range g.fig4() {
			bars = append(bars, report.NewStackedBar(
				fmt.Sprintf("%s/%s", r.mach, r.op), r.startup, max(r.total-r.startup, 0)))
		}
		report.BarChart(w, "", "µs", bars, 50)
	case "fig5":
		fmt.Fprintln(w, "Fig. 5: aggregated bandwidths R∞(p); paper values in parentheses")
		pr := model.FromPaper()
		var bars []report.Bar
		for _, r := range g.fig5() {
			bars = append(bars, report.NewBar(
				fmt.Sprintf("%s/%s p=%d (paper %.0f)", r.mach, r.op, r.p, pr.Bandwidth(r.mach, r.op, r.p)), r.mbs))
		}
		report.BarChart(w, "", "MB/s", bars, 50)
	case "table3":
		var rows []report.ExpressionRow
		for _, r := range g.table3() {
			rows = append(rows, report.ExpressionRow{
				Machine: r.mach, Op: string(r.op), Paper: r.paper.String(), Fitted: r.fitted.String(),
			})
		}
		report.WriteExpressionTable(w, "Table 3: timing expressions (µs; m in bytes; log base 2)", rows)
	case "spot":
		var cs []report.Comparison
		for _, sv := range spotValues() {
			cs = append(cs, report.Comparison{
				Label:    fmt.Sprintf("%s %s %s p=%d", sv.Where, sv.Machine, sv.Op, sv.P),
				Paper:    sv.Value,
				Measured: g.spot(sv),
				Unit:     sv.Unit,
			})
		}
		report.WriteComparisons(w, "Paper spot values vs reproduction", cs)
	case "all":
		for _, a := range paper.Artifacts {
			writeArtifact(w, g, a.ID, csv)
			fmt.Fprintln(w)
		}
		writeArtifact(w, g, "spot", csv)
	default:
		return fmt.Errorf("unknown artifact %q (want fig1…fig5, table3, spot, or all)", id)
	}
	return nil
}
