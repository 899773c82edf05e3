#!/usr/bin/env bash
# Run the perf suite (bench/bench_perf) and emit BENCH_perf.json.
#
# Usage: scripts/bench.sh [--smoke] [--filter REGEX] [--out FILE]
#   --smoke         fast pass (short min-time, 1 repetition) — CI uses this
#                   to prove the suite runs and to archive a trend artifact;
#                   numbers from a loaded CI box are indicative only
#   --filter REGEX  forward to --benchmark_filter (default: everything)
#   --out FILE      JSON output path (default: BENCH_perf.json in repo root)
#
# For publishable numbers run without --smoke on an idle machine. The
# headline comparisons are documented in docs/PERFORMANCE.md:
#   BM_MnaAssemblySparse                         — per-Newton-iteration cost
#                                                  (stamp, refactorize, solve)
#   BM_LuSolve                                   — dense LU baseline
#   BM_TransientStamp                            — one transient assembly,
#                                                  unfolded (stamp tape replay)
#   BM_TransientRefactor                         — transient refactor + solve,
#                                                  unfolded (fill shows here)
#   BM_TransientFactorize                        — full factorize incl. the
#                                                  column order, large N
#   BM_SsnTransient                              — end-to-end transient solve
#   BM_MosfetStamp                               — one MOSFET stamp (device eval)
#   BM_McClosedForm / BM_McSimBatch              — batch runner thread scaling
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
FILTER=""
OUT=BENCH_perf.json
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE=1; shift ;;
    --filter) FILTER="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

if [ ! -x build/bench/bench_perf ]; then
  echo "=== building bench_perf (release preset) ==="
  cmake --preset release
  cmake --build --preset release --target bench_perf -j
fi

args=(--benchmark_out="$OUT" --benchmark_out_format=json)
if [ "$SMOKE" = 1 ]; then
  # Plain-double min_time form: portable across google-benchmark versions.
  args+=(--benchmark_min_time=0.05 --benchmark_repetitions=1)
fi
if [ -n "$FILTER" ]; then
  args+=(--benchmark_filter="$FILTER")
fi

echo "=== bench_perf -> $OUT ==="
build/bench/bench_perf "${args[@]}"
echo "bench.sh: wrote $OUT"
