#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the server and the harness
# from this checkout into bench/out/build/ (Go's caches and its config directory
# too, so nothing is written outside the checkout), then runs the
# harness with the caller's arguments: --workload NAME --seed N --seconds S
# --trace 0|1.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/bench/out/build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/wqrtq" ]; then
  echo "bench/run.sh: $root holds no wqrtq source tree (go.mod, cmd/wqrtq) to build and measure" >&2
  exit 2
fi
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"
# Telemetry off before the first `go` runs: in a fresh config directory the go
# command otherwise forks a detached `go` child (its daily telemetry
# housekeeping) that outlives this script.
echo off >"$build/config/go/telemetry/mode"
(cd "$root" && go build -o "$build/wqrtq" ./cmd/wqrtq) >&2
(cd "$root/bench" && go build -o "$build/wqrtq-bench" .) >&2
exec "$build/wqrtq-bench" -root "$root" -bin "$build/wqrtq" "$@"
