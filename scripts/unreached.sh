#!/usr/bin/env bash
# List the ssnkit:: functions that src/ defines and no shipped binary keeps.
#
# Usage: scripts/unreached.sh [--check BASELINE]
#   (no option)       print the unreached functions, one per line
#   --check BASELINE  compare them with BASELINE (one function per line, as
#                     printed; `#` comments and blank lines are ignored) and
#                     exit 1 when a function is unreached but not listed, or
#                     listed but no longer unreached
#
# The shipped binaries are the ssnkit CLI, every bench, every example and
# ssnbench. Tests do not count, so a function that only a test calls is
# unreached. Everything is built into build-unreached/ at -O0 with
# -ffunction-sections and linked with --gc-sections, so each binary keeps
# exactly the functions its call graph reaches. -O0 matters: at -O2 the
# compiler inlines small callees and drops their out-of-line copies, and a
# function with a real caller would look unreached. Only external
# functions count (nm types T and W); file-local helpers are not listed.
# Needs Ninja; a first run takes about a minute on a 4-vCPU machine.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

BASELINE=""
case "${1:-}" in
  "") ;;
  --check) BASELINE="${2:?--check needs a baseline file}" ;;
  *) echo "unknown option: $1" >&2; exit 2 ;;
esac

OUT=build-unreached
flags=(-G Ninja -DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
cmake -S . -B "$OUT/repo" "${flags[@]}" >/dev/null
cmake -S ssnbench -B "$OUT/ssnbench" "${flags[@]}" >/dev/null
cmake --build "$OUT/repo" -j "$(nproc)" \
  --target ssnkit_tool bench/all examples/all >/dev/null
cmake --build "$OUT/ssnbench" -j "$(nproc)" --target ssnbench >/dev/null

# Defined ssnkit:: functions of the given objects, demangled, one per line.
functions() {
  nm -C --defined-only "$@" |
    sed -n 's/^[0-9a-f]* [TW] \(ssnkit::.*\)$/\1/p' | sort -u
}

mapfile -t binaries < <(
  find "$OUT/repo/bench" "$OUT/repo/examples" -maxdepth 1 -type f -perm -u+x
  echo "$OUT/repo/tools/ssnkit"
  echo "$OUT/ssnbench/ssnbench")
unreached=$(comm -23 <(functions "$OUT"/repo/src/*/libssnkit_*.a) \
                     <(functions "${binaries[@]}"))
echo "unreached.sh: $(grep -c . <<<"$unreached" || true) unreached functions" \
  "(${#binaries[@]} binaries)" >&2

if [ -z "$BASELINE" ]; then
  [ -z "$unreached" ] || printf '%s\n' "$unreached"
  exit 0
fi

listed=$(sed -e '/^[[:space:]]*#/d' -e '/^[[:space:]]*$/d' "$BASELINE" |
           sort -u)
missing=$(comm -23 <(printf '%s\n' "$unreached") <(printf '%s\n' "$listed") |
            sed '/^$/d')
stale=$(comm -13 <(printf '%s\n' "$unreached") <(printf '%s\n' "$listed") |
          sed '/^$/d')
status=0
if [ -n "$missing" ]; then
  echo "unreached.sh: unreached, not in $BASELINE (delete it, or list it" \
       "with the reason it stays):" >&2
  sed 's/^/  /' <<<"$missing" >&2
  status=1
fi
if [ -n "$stale" ]; then
  echo "unreached.sh: in $BASELINE but reached or gone (drop the line):" >&2
  sed 's/^/  /' <<<"$stale" >&2
  status=1
fi
[ "$status" -ne 0 ] || echo "unreached.sh: matches $BASELINE" >&2
exit "$status"
