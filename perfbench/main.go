// Command perfbench is the repository's benchmark. It drives the real
// cmd/serve binary over loopback, checks every answer against an
// in-process reference, and prints the end-to-end metrics of one
// workload; with -trace 1 it instead builds a serving stack
// in-process, with a front over two workers, and prints the per-layer
// ladder.
//
//	bash perfbench/run.sh --workload warm-batch-wire --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: warm-batch-wire or fallback-zipf")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 runs the traced in-process per-layer run instead of the end-to-end run")
		bin      = flag.String("bin", "", "directory holding the built serve binary")
		spans    = flag.String("spans", "", "file the traced run writes its spans to (JSON lines; empty skips)")
	)
	flag.Parse()
	_, ok := specs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload (warm-batch-wire or fallback-zipf), -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	if *trace == 0 && *bin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -bin is required for the end-to-end run")
		return 2
	}

	// Every exit path stops the serving processes: normal return,
	// failure, and SIGINT/SIGTERM.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping the serving processes\n", s)
		procs.stopAll()
		os.Exit(130)
	}()
	defer procs.stopAll()

	// The load generator shares the box with the servers it measures;
	// collecting its garbage less often keeps its pauses out of the
	// latencies it records. The servers keep their defaults.
	debug.SetGCPercent(400)

	d := time.Duration(*seconds) * time.Second
	var res runResult
	var err error
	if *trace == 1 {
		res, err = runTraced(*workload, *seed, d, *spans)
	} else {
		res, err = runE2E(*workload, *bin, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	failed := res.fails.count()
	for _, f := range res.fails.first {
		fmt.Println("FAIL", f)
	}
	fmt.Printf("workload %s seed %d: %d requests attempted, %d failed\n", *workload, *seed, res.attempted, failed)
	if *trace == 0 {
		res.metrics.set("failed_frac", float64(failed)/float64(max(res.attempted, 1)), "ratio")
	}
	res.metrics.print()
	if *trace == 0 {
		delete(res.metrics, "failed_frac") // carried by "failed"/"attempted"
	}
	out, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{failed == 0, max(res.attempted, 1), failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// metricSet is a run's metrics by name.
type metricSet map[string]*metric

func (m metricSet) set(name string, v float64, unit string) {
	m[name] = &metric{Value: v, Unit: unit}
}

// note attaches a human-readable remark (a sample count, a condition)
// printed beside the metric.
func (m metricSet) note(name, text string) {
	if x, ok := m[name]; ok {
		x.note = text
	}
}

func (m metricSet) print() {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x := m[n]
		line := fmt.Sprintf("%-30s %14.6g %s", n, x.Value, x.Unit)
		if x.note != "" {
			line += "  (" + x.note + ")"
		}
		fmt.Println(line)
	}
}
