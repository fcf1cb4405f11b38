#!/usr/bin/env bash
# List the library functions no shipped binary keeps: the gc-sections audit.
#
#   tools/dead_code.sh [build_dir]     (default: build-dead-code)
#
# Builds the library with -ffunction-sections (one section per function)
# and -fno-inline (every call stays a call), links every shipped binary
# with --gc-sections,--print-gc-sections, and prints, one demangled name per
# line, each esrp:: function whose section some binary's link removed and
# that no binary's symbol table still holds.
# The shipped binaries are esrp_cli, scenario_sweep, the examples, the
# benches, and bench/e2e's esrp_bench and esrp_bench_layers; the tests are
# not, so a function only a test calls shows up here. Registered factories
# stay reachable through their registry, so this cannot see a registered
# feature nothing exercises. The build directory is reused on later runs.
set -euo pipefail

if [[ $# -gt 1 ]]; then
  echo "usage: $0 [build_dir]" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$root/build-dead-code}
mkdir -p "$out"
out=$(cd "$out" && pwd)
jobs=$(nproc 2>/dev/null || echo 2)
for tool in cmake nm c++filt; do
  if ! command -v "$tool" >/dev/null; then
    echo "$0: $tool not found" >&2
    exit 2
  fi
done

# -fno-inline: a function inlined at every call site would otherwise read
# as dropped although the binaries run its code.
gc_flags=(-DCMAKE_BUILD_TYPE=Release
          "-DCMAKE_CXX_FLAGS=-ffunction-sections -fno-inline"
          "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections,--print-gc-sections")
log=$out/build.log
: >"$log"

# Configure and build one project with the gc flags.
audit_project() {
  local src=$1 dir=$2
  shift 2
  cmake -S "$src" -B "$dir" "${gc_flags[@]}" "$@" >>"$log" 2>&1
  cmake --build "$dir" -j "$jobs" >>"$log" 2>&1
}
# Relink one binary alone, so the linker's "removing unused section" lines
# can be told apart per binary, and record it in `binaries`. Binaries the
# project did not build (bench_micro_kernels without google-benchmark) are
# skipped.
binaries=()
relink() {
  local dir=$1 target=$2
  [[ -f "$dir/$target" ]] || return 0
  rm -f "$dir/$target"
  cmake --build "$dir" --target "$target" -j 1 2>&1 | tee -a "$log" |
    grep -o "removing unused section '[^']*'" |
    sed -e "s/^removing unused section '//" -e "s/'\$//" >"$out/gc/$target.txt" || true
  if [[ ! -f "$dir/$target" ]]; then
    echo "$0: relinking $target failed, see $log" >&2
    exit 1
  fi
  binaries+=("$dir/$target")
}

mkdir -p "$out/gc"
audit_project "$root" "$out/root" -DESRP_BUILD_TESTS=OFF -DESRP_HEADER_CHECKS=OFF
targets=(esrp_cli scenario_sweep)
for f in "$root"/examples/*.cpp "$root"/bench/bench_*.cpp; do
  targets+=("$(basename "$f" .cpp)")
done
for t in "${targets[@]}"; do relink "$out/root" "$t"; done
audit_project "$root/bench/e2e" "$out/e2e"
for t in esrp_bench esrp_bench_layers; do relink "$out/e2e" "$t"; done

# Both sides as mangled names without clone suffixes (.cold, .isra.0,
# .constprop.0, ...) or comdat group ("[_ZN...D5Ev]"), so a function
# counts as kept while any part of it is.
base_names() { sed -e 's/[.[].*//' | sort -u; }
# Removed function sections (any binary): strip the section prefix
# (.text., .text.unlikely., .text.hot., .text.startup.).
sed -E 's/^\.text\.((unlikely|hot|startup)\.)?//' "$out"/gc/*.txt |
  grep -E '^_ZN[KVRO]*4esrp' | base_names >"$out/removed.txt" || true
# Function symbols any binary keeps (global, local or weak text symbols).
for b in "${binaries[@]}"; do
  nm "$b" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
done | base_names >"$out/kept.txt"

echo "# ${#binaries[@]} binaries audited; esrp:: functions none of them keeps:" >&2
comm -23 "$out/removed.txt" "$out/kept.txt" | c++filt | sort -u
