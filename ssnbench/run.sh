#!/usr/bin/env bash
# The ssnkit benchmark in one command: build (RelWithDebInfo, into
# ssnbench/build/), self-test, run, print every metric, and write
# ssnbench/out/results.json.
#
#   ssnbench/run.sh [--workload W|all] [--seed S] [--seconds T]
#                   [--trace [0|1]] [--repeat K] [--write-reference]
#   ssnbench/run.sh compare A.json B.json
#
# Works from the root of the checkout that contains it; see
# ssnbench/README.md.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=ssnbench/build
if [ ! -f "$build/CMakeCache.txt" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S ssnbench -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" -j "$(nproc)" >&2

if [ "${1:-}" = compare ]; then
  exec "$build/ssnbench" "$@"
fi
"$build/ssnbench" --self-test
exec "$build/ssnbench" "$@"
