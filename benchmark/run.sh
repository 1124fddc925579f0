#!/usr/bin/env bash
# Builds the driver into .bench_build/ at the checkout root (build cache and
# the toolchain's telemetry counters included, so nothing is written outside
# the checkout) and runs it from the caller's directory with the caller's
# arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
(cd "$here" && XDG_CONFIG_HOME="$out/config" go build -o "$out/scdc-bench" .)
exec "$out/scdc-bench" "$@"
