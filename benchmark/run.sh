#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it with the arguments given:
#
#   bash benchmark/run.sh --workload fig8_q9 --seed 42 --seconds 10 --trace 0
#       one run; the last line of standard output is the result as JSON
#   bash benchmark/run.sh -seed 42
#       all six workloads untraced, then traced; writes benchmark/out/result.json
#       and benchmark/out/trace-<workload>.json, host facts in the header
#   bash benchmark/run.sh -compare old.json new.json
#
# Everything it writes (the binary, Go's build cache, results) stays inside
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
# Go's own caches, telemetry counters and temporary files go there too.
(
  export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
  export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
  cd "$here" && go build -o "$build/conquer-benchmark" .
)
if [ -z "${BENCH_COMMIT:-}" ] && command -v git >/dev/null && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
  BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD)"
  if [ -n "$(git -C "$root" status --porcelain -- . ':!benchmark/out' 2>/dev/null)" ]; then
    BENCH_COMMIT="$BENCH_COMMIT+dirty"
  fi
  export BENCH_COMMIT
fi
exec "$build/conquer-benchmark" -outdir "$here/out" "$@"
