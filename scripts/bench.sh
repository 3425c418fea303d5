#!/usr/bin/env bash
# bench.sh — run the tracked benchmarks once and emit a JSON record.
#
#   scripts/bench.sh            # print the record to stdout
#   scripts/bench.sh out.json   # also write it to out.json
#
# The record carries the commit, the raw `go test -bench` output, and
# the date; CI uploads it as BENCH_<sha>.json so per-commit numbers
# accumulate as artifacts. Append headline rows to BENCH.md by hand (or
# from the artifact) when a commit moves them.
set -euo pipefail
cd "$(dirname "$0")/.."

sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# The full-grid benchmarks want exactly one cold pass (-benchtime 1x);
# the kernel microbenchmarks need the default benchtime to reach steady
# state, so they run separately.
out=$(go test -run '^$' \
	-bench 'BenchmarkEstimateThroughput|BenchmarkColdSweep|BenchmarkCalibrationCold' \
	-benchtime 1x .)
out+=$'\n'
out+=$(go test -run '^$' -bench 'BenchmarkKernelEvents' .)
out+=$'\n'
# Warm piecewise vs affine serving: BENCH.md tracks that the segmented
# fits stay within 10% of affine throughput.
out+=$(go test -run '^$' -bench 'BenchmarkPiecewiseServing' .)
out+=$'\n'
# Warm Calibrated.Estimate from parallel goroutines at 1 and 2 cores:
# the read path takes no lock, so 2-core ns/op should come in below
# 1-core. Tracked, not gated.
out+=$(go test -run '^$' -bench 'BenchmarkPiecewiseServing/affine-warm-parallel' -cpu 1,2 .)
out+=$'\n'
# HTTP serving throughput: plain, instrumented (-obs), and instrumented
# with sampled tracing (-trace). Three full invocations: within each, a
# variant and its twins run seconds apart, so their ratios cancel the
# minute-scale load drift of a shared box that single-shot or -count
# grouping would bake in.
serve_out=""
for _ in 1 2 3; do
	serve_out+=$(go test -run '^$' -bench 'BenchmarkServeThroughput' ./internal/serve)
	serve_out+=$'\n'
done
out+=$serve_out

# Fast wire mode through a real socket: the binary codec single and
# batched, cold and hot answer cache, plus the same-run JSON batch as
# the comparator. Three full invocations, paired like the serving runs
# above: each binary batch788 row is judged against the JSON batch788
# row of its own invocation.
wire_out=""
for _ in 1 2 3; do
	wire_out+=$(go test -run '^$' -bench 'BenchmarkServeWire' ./internal/serve)
	wire_out+=$'\n'
done
out+=$wire_out

# Gate: the binary batched hot-cache path must either clear 1M
# scenarios/s through the socket or beat the same-run JSON batch 5×.
# Verdict is the BEST of the three paired runs, as for the overhead
# gates below: a genuine regression depresses every pair, host-load
# noise only some. The headline is the best pair, printed either way.
BENCH_WIRE="$wire_out" python3 - <<'EOF'
import os, re, sys

rates = {}
for line in os.environ["BENCH_WIRE"].splitlines():
    m = re.match(r"BenchmarkServeWire/(\S+?)(?:-\d+)?\s", line)
    if not m:
        continue
    rate = re.search(r"([\d.]+) scenarios/s", line)
    if not rate:
        sys.exit(f"bench: no scenarios/s in line: {line}")
    rates.setdefault(m.group(1), []).append(float(rate.group(1)))

hots, jsons = rates.get("binary-batch788-hot", []), rates.get("json-batch788-cold", [])
if not hots or len(hots) != len(jsons):
    counts = {k: len(v) for k, v in rates.items()}
    sys.exit(f"bench: unpaired serve-wire variants {counts}")
pairs = [(hot, hot / js) for hot, js in zip(hots, jsons)]
hot, ratio = max(pairs, key=lambda p: p[1])
verdict = "ok" if any(h >= 1e6 or r >= 5.0 for h, r in pairs) else "FAIL"
shown = ", ".join(f"{r:.1f}x" for _, r in pairs)
print(f"bench: wire headline: binary batch788 hot {hot:,.0f} scenarios/s "
      f"({ratio:.1f}x same-run JSON batch788; paired ratios [{shown}]) {verdict}", file=sys.stderr)
if verdict == "FAIL":
    sys.exit("bench: fast wire mode fell below 1M scenarios/s and below 5x the JSON path in every paired run")
EOF

# Gate: metrics-enabled (-obs) and sampled-tracing (-trace) serving
# must each stay within 5% of the plain warm path. Verdict is the BEST
# paired variant/plain throughput ratio: real instrumentation overhead
# depresses every pair, while host-load noise (±5-10% on a shared box)
# depresses pairs independently, so a genuine >5% regression fails all
# three pairs and a noisy dip fails only one.
BENCH_SERVE="$serve_out" python3 - <<'EOF'
import os, re, sys

rates = {}
for line in os.environ["BENCH_SERVE"].splitlines():
    # The -GOMAXPROCS name suffix is absent when GOMAXPROCS=1.
    m = re.match(r"BenchmarkServeThroughput/(\S+?)(?:-\d+)?\s", line)
    if not m:
        continue
    rate = re.search(r"([\d.]+) scenarios/s", line)
    if not rate:
        sys.exit(f"bench: no scenarios/s in line: {line}")
    rates.setdefault(m.group(1), []).append(float(rate.group(1)))

failed = False
for plain in ("single", "batch788"):
    for suffix in ("-obs", "-trace"):
        variant = plain + suffix
        if len(rates.get(plain, [])) != len(rates.get(variant, [])) or not rates.get(plain):
            counts = {k: len(v) for k, v in rates.items()}
            sys.exit(f"bench: unpaired serve variants {counts}")
        ratios = [v / p for v, p in zip(rates[variant], rates[plain])]
        best = max(ratios)
        verdict = "ok" if best >= 0.95 else "FAIL"
        shown = ", ".join(f"{r:.1%}" for r in ratios)
        print(f"bench: {suffix[1:]} overhead {plain}: paired ratios [{shown}], "
              f"best {best:.1%} {verdict}", file=sys.stderr)
        failed |= best < 0.95
if failed:
    sys.exit("bench: instrumented serving fell below 95% of the plain path in every paired run")
EOF

# Sampled-trace digest: run a live worker at 1-in-1 sampling, drive it
# with predict's grid load, and keep the slowest sampled requests from
# GET /debug/traces in the record — per-commit tail-latency anatomy
# (which stage ate the time) next to the throughput numbers.
tracebin=$(mktemp -d)
# Every server started below is recorded in pids; the EXIT trap kills
# and reaps whatever is still running, so a failing step never leaves a
# server holding its port for the next run.
pids=()
cleanup() {
	if ((${#pids[@]})); then
		kill "${pids[@]}" 2>/dev/null || true
		wait "${pids[@]}" 2>/dev/null || true
	fi
	rm -rf "$tracebin"
}
trap cleanup EXIT
# wait_ready URL polls URL for up to 5 s and fails the script if the
# server behind it never answers.
wait_ready() {
	for _ in $(seq 50); do
		curl -sf -o /dev/null "$1" 2>/dev/null && return 0
		sleep 0.1
	done
	echo "bench: $1 not ready after 5s" >&2
	return 1
}
go build -o "$tracebin" ./cmd/serve ./cmd/predict ./cmd/fleetfront

# Front overhead: the batch788 grid through the sharding front over two
# workers vs one of those workers answering directly. Tracked, not
# gated — the target is ≤15% overhead (one extra hop, split/merge, and
# the per-worker gates). Both paths are warmed once so the grid's
# fallback simulations (paper-table3 covers neither allgather nor the
# non-default variants) sit in each worker's answer cache before
# either side is timed.
fw0_port=18696 fw1_port=18697 front_port=18698
"$tracebin/serve" -addr "127.0.0.1:$fw0_port" -registry paper-table3 -quiet &
pids+=($!)
"$tracebin/serve" -addr "127.0.0.1:$fw1_port" -registry paper-table3 -quiet &
pids+=($!)
"$tracebin/fleetfront" -addr "127.0.0.1:$front_port" -quiet -scrape-interval 0 \
	-workers "w0=127.0.0.1:$fw0_port,w1=127.0.0.1:$fw1_port" &
pids+=($!)
for url in "http://127.0.0.1:$fw0_port/v1/registry" \
	"http://127.0.0.1:$fw1_port/v1/registry" \
	"http://127.0.0.1:$front_port/v1/registry"; do
	wait_ready "$url"
done
front_reps=10
front_times=$(
	for target in "direct=http://127.0.0.1:$fw0_port" "front=http://127.0.0.1:$front_port"; do
		name=${target%%=*} url=${target#*=}
		"$tracebin/predict" -remote "$url" -registry paper-table3 -grid >/dev/null # warm
		start=$(python3 -c 'import time; print(time.monotonic())')
		"$tracebin/predict" -remote "$url" -registry paper-table3 -grid -repeat "$front_reps" >/dev/null
		end=$(python3 -c 'import time; print(time.monotonic())')
		echo "$name $start $end"
	done
)
front_row=$(FRONT_TIMES="$front_times" FRONT_REPS="$front_reps" python3 - <<'EOF'
import os

reps, grid = int(os.environ["FRONT_REPS"]), 788
rates = {}
for line in os.environ["FRONT_TIMES"].splitlines():
    name, start, end = line.split()
    rates[name] = reps * grid / (float(end) - float(start))
ratio = rates["front"] / rates["direct"]
verdict = "ok" if ratio >= 0.85 else "over-target"
print(f"BenchmarkFleetFront/json-batch788 direct {rates['direct']:,.0f} scenarios/s, "
      f"fronted {rates['front']:,.0f} scenarios/s ({ratio:.1%} of direct, "
      f"target >=85%) {verdict} [non-gating]")
EOF
)
echo "bench: $front_row" >&2
out+=$front_row
out+=$'\n'
kill "${pids[@]}" 2>/dev/null || true
wait "${pids[@]}" 2>/dev/null || true
pids=()
trace_port=18695
"$tracebin/serve" -addr "127.0.0.1:$trace_port" -registry paper-table3 \
	-quiet -trace-sample 1 -answer-cache-size 0 &
pids+=($!)
wait_ready "http://127.0.0.1:$trace_port/v1/registry"
"$tracebin/predict" -remote "http://127.0.0.1:$trace_port" -registry paper-table3 \
	-grid -repeat 20 -trace-id "bench-$sha" >/dev/null
trace_out=$(curl -sf "http://127.0.0.1:$trace_port/debug/traces")
kill "${pids[@]}" 2>/dev/null || true
wait "${pids[@]}" 2>/dev/null || true
pids=()

record=$(
	BENCH_SHA="$sha" BENCH_OUT="$out" BENCH_TRACES="$trace_out" python3 - <<'EOF'
import json, os, sys, datetime

traces = []
for line in os.environ.get("BENCH_TRACES", "").splitlines():
    line = line.strip()
    if line:
        traces.append(json.loads(line))
traces.sort(key=lambda t: t.get("duration_ns", 0), reverse=True)
slowest = [{k: t.get(k) for k in ("trace_id", "duration_ns", "outcome", "scenarios", "stage_ns")}
           for t in traces[:5]]
if slowest:
    top = slowest[0]
    print(f"bench: trace digest: {len(traces)} sampled, slowest "
          f"{top['duration_ns']:,} ns ({top['trace_id']})", file=sys.stderr)

print(json.dumps({
    "sha": os.environ["BENCH_SHA"],
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    "bench": os.environ["BENCH_OUT"].splitlines(),
    "trace_digest": {"sampled": len(traces), "slowest": slowest},
}, indent=2))
EOF
)

echo "$record"
if [ $# -ge 1 ]; then
	echo "$record" >"$1"
	echo "bench: wrote $1" >&2
fi
