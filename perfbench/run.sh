#!/usr/bin/env bash
# run.sh — build the serve binary and the benchmark from this
# checkout, then run one workload:
#
#   bash perfbench/run.sh --workload warm-batch-wire --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes goes
# under .bench_build/ there, the Go build cache included.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$here/../go.mod" || ! -d "$here/../cmd/serve" ]]; then
	echo "perfbench: no repository around $here to build serve from" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin"
# Keep the toolchain's caches and config (telemetry included) inside the
# checkout, and never reach for the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/bin/" repro/cmd/serve .)

spans="$out/spans.jsonl"
exec "$out/bin/perfbench" -bin "$out/bin" -spans "$spans" "$@"
