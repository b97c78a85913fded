#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload rl_flappy --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
build="$out/perfbench"

{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target perfbench -j 4
} >&2

exec "$build/perfbench" --out-dir "$out" --root "$root" "$@"
