#!/usr/bin/env bash
# Build and run the paper-reproduction benches, one log per bench.
#
#   tools/run_benches.sh                     # configure+build+run everything
#   tools/run_benches.sh --list              # print available benches
#   tools/run_benches.sh --only bench_paper_tables bench_ablation_queue
#   tools/run_benches.sh --build-dir build-debug
#   tools/run_benches.sh --threads 4         # kernel threads per bench
#                                            # (0 = all hardware threads)
#   tools/run_benches.sh --baseline BENCH_<stamp>.json
#                                            # compare against a previous
#                                            # snapshot: prints per-bench
#                                            # real-time deltas; a >15%
#                                            # regression on a fused-kernel
#                                            # measurement (name matching
#                                            # /Fused/) is a SUMMARY FAIL;
#                                            # baseline rows absent from the
#                                            # new run print as "removed",
#                                            # and a removed /Fused/ row
#                                            # fails as well
#   tools/run_benches.sh --baseline auto     # same, but resolve the baseline
#                                            # to the newest committed
#                                            # BENCH_*.json (git ls-files);
#                                            # errors if none is committed
#
# Results go to bench_results/<UTC timestamp>/<bench>.log, and a summary of
# exit codes to bench_results/<UTC timestamp>/SUMMARY. A machine-readable
# snapshot of the run — per-bench status plus every google-benchmark row —
# is written to BENCH_<UTC timestamp>.json in the repo root so successive
# runs accumulate a perf trajectory. The script exits nonzero iff any bench
# failed.
set -euo pipefail

repo_root=$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)
build_dir="$repo_root/build"
list_only=0
baseline=""
only=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --list) list_only=1; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --baseline)
      baseline="$2"
      if [[ "$baseline" == auto ]]; then
        # Newest committed snapshot: the stamps are UTC ISO-8601-ish, so the
        # lexicographically last path is the most recent run.
        baseline=$(cd "$repo_root" && git ls-files 'BENCH_*.json' | sort | tail -1)
        if [[ -z "$baseline" ]]; then
          echo "--baseline auto: no committed BENCH_*.json snapshot found" >&2
          exit 2
        fi
        baseline="$repo_root/$baseline"
        echo "baseline auto -> $(basename "$baseline")"
      fi
      if [[ ! -f "$baseline" ]]; then
        echo "--baseline: no such snapshot: $baseline" >&2
        exit 2
      fi
      shift 2 ;;
    --threads)
      # The kernels read ESRP_NUM_THREADS at startup (src/parallel), so a
      # plain env export configures every bench binary uniformly.
      export ESRP_NUM_THREADS="$2"; shift 2 ;;
    --only)
      shift
      while [[ $# -gt 0 && "$1" != --* ]]; do only+=("$1"); shift; done
      if [[ ${#only[@]} -eq 0 ]]; then
        echo "--only needs at least one bench name (see --list)" >&2
        exit 2
      fi
      ;;
    -h|--help)
      # The leading comment block (after the shebang) is the usage text.
      awk 'NR == 1 { next } /^#/ { sub(/^# ?/, ""); print; next } { exit }' "$0"
      exit 0 ;;
    *) echo "unknown option: $1 (try --help)" >&2; exit 2 ;;
  esac
done

benches=()
for src in "$repo_root"/bench/bench_*.cpp; do
  benches+=("$(basename "${src%.cpp}")")
done

if [[ $list_only -eq 1 ]]; then
  printf '%s\n' "${benches[@]}"
  exit 0
fi

if [[ ${#only[@]} -gt 0 ]]; then
  for b in "${only[@]}"; do
    if [[ ! " ${benches[*]} " == *" $b "* ]]; then
      echo "no such bench: $b (see --list)" >&2
      exit 2
    fi
  done
  benches=("${only[@]}")
fi

stamp=$(date -u +%Y%m%dT%H%M%SZ)
out_dir="$repo_root/bench_results/$stamp"
mkdir -p "$out_dir"

# Configure, and drop benches the configure step reported as skipped
# (bench_micro_kernels without google-benchmark) so the targeted build only
# asks for targets that exist — and never runs a stale binary of a bench the
# current configure no longer builds.
cfg_log=$(cmake -B "$build_dir" -S "$repo_root" -DESRP_BUILD_BENCHES=ON 2>&1) \
  || { printf '%s\n' "$cfg_log" >&2; exit 1; }
targets=()
for b in "${benches[@]}"; do
  if [[ "$cfg_log" == *"skipping $b"* ]]; then
    echo "SKIP $b (not configured — google-benchmark missing?)" | tee -a "$out_dir/SUMMARY"
  else
    targets+=("$b")
  fi
done
if [[ ${#targets[@]} -eq 0 ]]; then
  echo "nothing to build: every requested bench was skipped" >&2
  exit 1
fi
cmake --build "$build_dir" -j "$(nproc)" --target "${targets[@]}"

echo "writing results to $out_dir"

status=0
for b in "${targets[@]}"; do
  echo "=== $b"
  if (cd "$build_dir" && "./$b") >"$out_dir/$b.log" 2>&1; then
    # google-benchmark exits 0 even when a benchmark calls SkipWithError
    # (e.g. BM_FacadeOverheadAssert's <1% facade-dispatch bound), so also
    # treat its "ERROR OCCURRED" marker as a failure.
    if grep -q "ERROR OCCURRED" "$out_dir/$b.log"; then
      echo "FAIL $b (benchmark-internal assertion — see log)" | tee -a "$out_dir/SUMMARY"
      status=1
    else
      echo "PASS $b" >> "$out_dir/SUMMARY"
    fi
  else
    rc=$?
    echo "FAIL $b (exit $rc)" | tee -a "$out_dir/SUMMARY"
    status=1
  fi
done

echo "---"
cat "$out_dir/SUMMARY"

# Dated JSON snapshot for the perf trajectory: one object per bench with
# its SUMMARY status, plus every google-benchmark measurement row found in
# the logs (BM_* name, real/cpu time with unit, iteration count). Written
# last so a crashed run leaves no half-snapshot behind.
bench_json="$repo_root/BENCH_$stamp.json"
{
  echo '{'
  echo "  \"stamp\": \"$stamp\","
  echo "  \"threads\": \"${ESRP_NUM_THREADS:-1}\","
  echo '  "benches": ['
  awk '{
    status = $1; name = $2;
    printf "%s    {\"name\": \"%s\", \"status\": \"%s\"}", sep, name, status;
    sep = ",\n";
  } END { print "" }' "$out_dir/SUMMARY"
  echo '  ],'
  echo '  "measurements": ['
  cat "$out_dir"/*.log 2>/dev/null | awk '
    # Numeric guard on the time fields: a SkipWithError row reads
    # "BM_Foo ERROR OCCURRED: ..." and must not corrupt the JSON.
    $1 ~ /^BM_/ && NF >= 6 && $2 ~ /^[0-9.e+-]+$/ && $4 ~ /^[0-9.e+-]+$/ {
      printf "%s    {\"name\": \"%s\", \"real_time\": %s, \"time_unit\": \"%s\", \"cpu_time\": %s, \"iterations\": %s}",
             sep, $1, $2, $3, $4, $6;
      sep = ",\n";
    } END { print "" }'
  echo '  ]'
  echo '}'
} > "$bench_json"
echo "perf snapshot: $bench_json"

# Baseline compare: per-measurement real-time deltas against a previous
# BENCH_<stamp>.json. Only the fused-kernel measurements (BM_*Fused*) gate
# the run — they guard the fusion wins — and only regressions beyond 15%
# fail; everything else is informational (timings on shared runners are
# noisy, which is also why the CI hook runs this step as non-blocking).
# Baseline rows missing from the new snapshot print as "removed"; a removed
# gated row fails too, so renaming or deleting it cannot disarm the gate.
# A snapshot does not record which bench produced a row, so an --only run
# compared against a baseline must include bench_micro_kernels, the bench
# that emits the gated rows.
if [[ -n "$baseline" ]]; then
  echo "--- baseline compare: $(basename "$baseline") -> $(basename "$bench_json")"
  regress_tmp=$(mktemp)
  awk -v regress_file="$regress_tmp" '
    FNR == 1 { file_idx++ }
    /"name": ".*"real_time":/ {
      line = $0
      split(line, q, "\"")
      name = q[4]
      sub(/.*"real_time": /, "", line)
      sub(/,.*/, "", line)
      t = line + 0
      if (file_idx == 1) {
        if (!(name in base)) base_order[++nb] = name
        base[name] = t
      } else if (!(name in cur)) {
        cur[name] = t
        order[++n] = name
      }
    }
    END {
      printf "%-52s %14s %14s %9s\n", "benchmark", "baseline", "current", "delta"
      for (k = 1; k <= n; ++k) {
        name = order[k]
        if (!(name in base) || base[name] == 0) {
          printf "%-52s %14s %14.2f %9s\n", name, "-", cur[name], "new"
          continue
        }
        delta = 100 * (cur[name] - base[name]) / base[name]
        printf "%-52s %14.2f %14.2f %+8.1f%%\n", name, base[name], cur[name], delta
        if (name ~ /Fused/ && delta > 15)
          printf "%s %+0.1f%%\n", name, delta >> regress_file
      }
      for (k = 1; k <= nb; ++k) {
        name = base_order[k]
        if (name in cur) continue
        printf "%-52s %14.2f %14s %9s\n", name, base[name], "-", "removed"
        if (name ~ /Fused/)
          printf "%s removed\n", name >> regress_file
      }
    }' "$baseline" "$bench_json"
  if [[ -s "$regress_tmp" ]]; then
    while read -r name delta; do
      if [[ "$delta" == removed ]]; then
        echo "FAIL bench-compare ($name is gated but missing from the new snapshot)" | tee -a "$out_dir/SUMMARY"
      else
        echo "FAIL bench-compare ($name regressed $delta vs baseline, limit +15%)" | tee -a "$out_dir/SUMMARY"
      fi
    done < "$regress_tmp"
    status=1
  else
    echo "PASS bench-compare" >> "$out_dir/SUMMARY"
  fi
  rm -f "$regress_tmp"
fi

# Belt and braces: derive the exit code from the SUMMARY itself in addition
# to the loop's status flag, so any FAIL line guarantees a nonzero exit even
# if a future refactor moves the loop into a subshell or pipe.
if grep -q '^FAIL ' "$out_dir/SUMMARY"; then
  exit 1
fi
exit $status
