#!/usr/bin/env bash
# Local mirror of the CI gate: configure, build, ctest (which includes the
# ssnlint.src lint gate), then clang-tidy on changed files. Run before
# pushing; CI runs the same steps plus the ASan+UBSan leg.
#
# Usage: scripts/check.sh [--preset NAME] [--all-tidy] [--fuzz] [--tsan]
#   --preset NAME  CMake preset to use (default: release)
#   --all-tidy     clang-tidy every src/ file instead of only changed ones
#   --lint         build ssnlint and run only the whole-repo scan (timed)
#   --serve        build the daemon and run only the serve smoke
#                  (scripts/serve_smoke.sh: SIGTERM mid-load, clean drain,
#                  cache warm restart)
#   --chaos        build the fault-injection preset and run only the chaos
#                  soak (scripts/chaos_soak.sh: serve under injected faults
#                  + SIGTERM/restart, zero false-verified responses)
#   --fuzz         shorthand for --preset fuzz (builds the tests/fuzz
#                  harness and replays the seed corpora; real libFuzzer
#                  mutation needs clang — see tests/fuzz/CMakeLists.txt)
#   --tsan         shorthand for --preset tsan (ThreadSanitizer; exercises
#                  the parallel batch runner for data races)
set -euo pipefail
cd "$(dirname "$0")/.."

PRESET=release
ALL_TIDY=0
LINT_ONLY=0
SERVE_ONLY=0
CHAOS_ONLY=0
while [ $# -gt 0 ]; do
  case "$1" in
    --preset) PRESET="$2"; shift 2 ;;
    --all-tidy) ALL_TIDY=1; shift ;;
    --lint) LINT_ONLY=1; shift ;;
    --serve) SERVE_ONLY=1; shift ;;
    --chaos) CHAOS_ONLY=1; PRESET=fault-injection; shift ;;
    --fuzz) PRESET=fuzz; shift ;;
    --tsan) PRESET=tsan; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

BUILD_DIR=build
case "$PRESET" in
  asan-ubsan) BUILD_DIR=build-asan ;;
  tsan) BUILD_DIR=build-tsan ;;
  fault-injection) BUILD_DIR=build-fi ;;
  fuzz) BUILD_DIR=build-fuzz ;;
esac

# The full-repo scan mirrors CI's lint-full job: every first-party tree,
# full-surface registry checking, the checked-in baseline enforced, and
# --stats so the phase timings land in the terminal.
run_lint() {
  echo "=== ssnlint (standalone, full repo, timed) ==="
  "$BUILD_DIR"/tools/ssnlint --stats --full-surface \
    --baseline tests/lint/ssnlint-baseline.txt \
    src tools bench examples
}

if [ "$LINT_ONLY" = 1 ]; then
  echo "=== configure ($PRESET) ==="
  cmake --preset "$PRESET" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  echo "=== build ssnlint ==="
  cmake --build --preset "$PRESET" -j --target ssnlint
  run_lint
  echo "check.sh: lint gate passed"
  exit 0
fi

if [ "$SERVE_ONLY" = 1 ]; then
  echo "=== configure ($PRESET) ==="
  cmake --preset "$PRESET" > /dev/null
  echo "=== build ssnkit ==="
  cmake --build --preset "$PRESET" -j --target ssnkit_tool
  scripts/serve_smoke.sh "$BUILD_DIR"/tools/ssnkit
  echo "check.sh: serve smoke passed"
  exit 0
fi

if [ "$CHAOS_ONLY" = 1 ]; then
  echo "=== configure (fault-injection) ==="
  cmake --preset fault-injection > /dev/null
  echo "=== build ssnkit (instrumented) ==="
  cmake --build --preset fault-injection -j --target ssnkit_tool
  scripts/chaos_soak.sh "$BUILD_DIR"/tools/ssnkit
  echo "check.sh: chaos soak passed"
  exit 0
fi

echo "=== configure ($PRESET) ==="
cmake --preset "$PRESET" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "=== build ==="
cmake --build --preset "$PRESET" -j

echo "=== ctest (includes ssnlint gate) ==="
ctest --preset "$PRESET"

run_lint

# Sanitizer presets slow each sample ~10-30x, which breaks the smoke's
# timing assumptions (the SIGTERM would land during the *clean* leg's
# samples too early); the release leg covers the end-to-end behavior.
if [ "$PRESET" = release ]; then
  echo "=== interrupt-resume smoke ==="
  scripts/resume_smoke.sh "$BUILD_DIR"/tools/ssnkit
  echo "=== serve smoke ==="
  scripts/serve_smoke.sh "$BUILD_DIR"/tools/ssnkit
fi

echo "=== clang-tidy ==="
if ! command -v clang-tidy > /dev/null 2>&1; then
  echo "clang-tidy not installed; skipping (CI runs it)"
  exit 0
fi

if [ "$ALL_TIDY" = 1 ]; then
  mapfile -t files < <(find src -name '*.cpp' | sort)
else
  # Changed files vs. the merge base with main (fall back to HEAD for a
  # detached or single-branch checkout).
  base=$(git merge-base HEAD origin/main 2> /dev/null \
      || git merge-base HEAD main 2> /dev/null || echo HEAD)
  mapfile -t files < <(git diff --name-only --diff-filter=d "$base" -- 'src/*.cpp' | sort -u)
fi

if [ "${#files[@]}" = 0 ]; then
  echo "no changed src/*.cpp files; nothing to tidy"
else
  clang-tidy -p "$BUILD_DIR" --quiet "${files[@]}"
fi

echo "check.sh: all gates passed"
