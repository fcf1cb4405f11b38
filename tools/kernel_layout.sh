#!/usr/bin/env bash
# Print where the linker placed the hot kernels of a binary, as each
# function's start address mod 64 (its offset in a 64-byte cache line).
#
#   tools/kernel_layout.sh .bench_build/e2e/esrp_bench
#
# A kernel's speed can depend on that offset alone (see the ESRP_CODE_ALIGN_64
# pin on CsrMatrix::spmv_rows), so when two builds time differently on code
# neither changed, compare this output for both binaries. One line per
# kernel: "<address mod 64> <address> <function>", or "missing" when the
# binary has no such symbol (inlined or not linked). Exits 2 if the binary
# or nm is unavailable.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <binary>" >&2
  exit 2
fi
bin=$1
if [[ ! -f "$bin" ]]; then
  echo "$0: no such binary: $bin" >&2
  exit 2
fi
if ! command -v nm >/dev/null; then
  echo "$0: nm not found" >&2
  exit 2
fi

kernels=(
  "esrp::CsrMatrix::spmv_rows"
  "esrp::CsrMatrix::spmv_dot"
  "esrp::vec_dot"
  "esrp::vec_dot2"
  "esrp::vec_dot_segments"
  "esrp::fused_axpy2"
  "esrp::BlockJacobiPreconditioner::apply"
  "esrp::BlockJacobiPreconditioner::apply_local"
  "esrp::BlockJacobiPreconditioner::apply_blocks"
  "esrp::ExchangeEngine::spmv"
  "esrp::ExchangeEngine::capture"
  "esrp::SimCluster::replay"
  "esrp::RedundantCopy::RedundantCopy"
)

symbols=$(nm -C "$bin")
for k in "${kernels[@]}"; do
  # The function itself: text symbol, name followed by its parameter list,
  # no "[clone ...]" or lambda suffix.
  line=$(grep -F " $k(" <<<"$symbols" | grep -E '^[0-9a-f]+ [Tt] ' |
         grep -v -e '\[clone' -e 'lambda' | head -n 1 || true)
  if [[ -z "$line" ]]; then
    printf '%-7s %-16s %s\n' missing - "$k"
    continue
  fi
  addr=${line%% *}
  printf '%-7d %-16s %s\n' $((16#$addr % 64)) "$addr" "$k"
done
