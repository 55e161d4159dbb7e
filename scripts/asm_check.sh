#!/usr/bin/env bash
# Structural vectorization proof for the lane kernels (DESIGN.md §11).
#
#   ./scripts/asm_check.sh                  # assert the lane kernels vectorize
#   ./scripts/asm_check.sh --negative-smoke # assert the checks CAN fail
#
# The lane layer's hot kernels (`snapea_tensor::lane`) are `#[inline(never)]`
# precisely so their machine code survives as standalone symbols in the
# release rlib. This script disassembles the newest `libsnapea_tensor` rlib
# and asserts, per kernel, that the body contains packed vector float ops
# and zero scalar float multiplies — a structural proof that the compiler
# vectorized the eight-wide loops, immune to benchmark noise.
#
# The dispatched kernels (the GEMM axpy and the executor's window-major
# broadcast walk: `lane_axpy8`, `lane_broadcast`, `lane_collapse8`,
# `lane_masked_walk`, `lane_predict`) have two instantiations of one body,
# `<kernel>::baseline` and `<kernel>::avx2`. The baseline one must pass the
# check above. On x86-64 the AVX2 one must also exist, carry at least one
# packed 256-bit (`ymm`) float op, and contain no scalar multiply and no
# `vfmadd*`: an FMA rounds once and would break bit-identity with the
# baseline. The lane dot products are not dispatched and are checked once.
#
# The negative smoke runs the same assertion against `seq_dot` — a
# deliberately sequential scalar reduction (its loop-carried dependency
# forbids vectorization) — and demands that it FAILS, proving the patterns
# actually discriminate (same prove-it-can-fail protocol as the lint and
# selfcheck smokes in check.sh). On x86-64 it also demands that the 256-bit
# check FAILS on a baseline instantiation, which has no `ymm` ops.
set -euo pipefail
cd "$(dirname "$0")/.."

NEGATIVE=0
if [ "${1:-}" = "--negative-smoke" ]; then
  NEGATIVE=1
fi

if ! command -v objdump > /dev/null 2>&1; then
  echo "SKIP: objdump not available; cannot verify vectorization"
  exit 0
fi

RLIB=$(ls -t target/release/deps/libsnapea_tensor-*.rlib 2> /dev/null | head -n 1)
if [ -z "$RLIB" ]; then
  echo "ERROR: no libsnapea_tensor rlib under target/release/deps; run cargo build --release first"
  exit 1
fi

# Arch-gated instruction patterns. VEC must appear >= 1 time per kernel;
# SCALAR must appear 0 times (a single scalar multiply in the loop body
# means the reduction fell back to scalar code).
ARCH=$(uname -m)
# WIDE/FMA are the extra AVX2-instantiation patterns (x86-64 only): WIDE
# must appear >= 1 time, FMA 0 times.
WIDE=''
FMA='vfmadd'
case "$ARCH" in
  x86_64)
    VEC='(v?)mulps|vfmadd[0-9]*ps|(v?)addps'
    SCALAR='mulss'
    WIDE='v(mul|add)ps[[:space:]].*%ymm'
    ;;
  aarch64 | arm64)
    VEC='fmla[[:space:]]+v|fmul[[:space:]]+v|fadd[[:space:]]+v'
    SCALAR='fmul[[:space:]]+s[0-9]'
    ;;
  *)
    echo "SKIP: no patterns for architecture $ARCH"
    exit 0
    ;;
esac

DISASM=$(mktemp)
trap 'rm -f "$DISASM"' EXIT
objdump -d "$RLIB" > "$DISASM"

# Prints the disassembly of the symbol whose mangled name matches the
# fragment (`4lane` scopes to the lane module; the literal `17h` that
# precedes the symbol hash keeps `lane_dot` from also matching
# `lane_dot_resolved`).
extract() {
  awk -v pat="$1" '
    /^[0-9a-f]+ <.*>:$/ { insym = ($0 ~ pat) }
    insym { print }
  ' "$DISASM"
}

# check_kernel <name> <symbol regex> <expect: pass|fail> [wide]
# With `wide`, the body must also carry a 256-bit packed float op and no FMA.
check_kernel() {
  local name=$1 pat=$2 expect=$3 wide=${4:-}
  local body vec scalar ymm fma verdict detail
  body=$(extract "$pat")
  if [ -z "$body" ]; then
    echo "ERROR: symbol for $name not found in $RLIB"
    return 1
  fi
  vec=$(printf '%s\n' "$body" | grep -cE "$VEC" || true)
  scalar=$(printf '%s\n' "$body" | grep -cE "$SCALAR" || true)
  verdict=pass
  if [ "$vec" -lt 1 ] || [ "$scalar" -ne 0 ]; then
    verdict=fail
  fi
  detail="$vec vector op(s), $scalar scalar multiply(ies)"
  if [ -n "$wide" ]; then
    ymm=$(printf '%s\n' "$body" | grep -cE "$WIDE" || true)
    fma=$(printf '%s\n' "$body" | grep -cE "$FMA" || true)
    if [ "$ymm" -lt 1 ] || [ "$fma" -ne 0 ]; then
      verdict=fail
    fi
    detail="$detail, $ymm 256-bit op(s), $fma fma(s)"
  fi
  if [ "$verdict" != "$expect" ]; then
    echo "ERROR: $name: $detail — expected to $expect"
    return 1
  fi
  echo "    $name: $detail ($verdict, as expected)"
}

# The five dispatched kernels; symbols are `snapea_tensor::lane::<k>::<isa>`
# (`4lane` scopes to the lane module, the length prefix ends the kernel
# name, and `17h` precedes the symbol hash).
DISPATCHED="lane_axpy8 lane_broadcast lane_collapse8 lane_masked_walk lane_predict"

if [ "$NEGATIVE" -eq 1 ]; then
  # seq_dot is a plain sequential reduction: it must FAIL the vectorization
  # assertion, or the patterns prove nothing.
  echo "==> asm negative smoke: seq_dot must not pass the vector gate"
  check_kernel seq_dot '4lane.*seq_dot17h' fail
  if [ -n "$WIDE" ]; then
    echo "==> asm negative smoke: a baseline instantiation must not pass the 256-bit gate"
    check_kernel lane_axpy8::baseline '4lane10lane_axpy88baseline17h' fail wide
  fi
  exit 0
fi

echo "==> asm vectorization gate on $RLIB ($ARCH)"
for k in $DISPATCHED; do
  check_kernel "$k::baseline" "4lane[0-9]+${k}8baseline17h" pass
  if [ -n "$WIDE" ]; then
    check_kernel "$k::avx2" "4lane[0-9]+${k}4avx217h" pass wide
  fi
done
check_kernel lane_dot '4lane.*lane_dot17h' pass
check_kernel lane_dot_resolved '4lane.*lane_dot_resolved17h' pass
check_kernel lane_dot_gather '4lane.*lane_dot_gather17h' pass
echo "OK: all lane kernels carry packed vector float ops and no scalar multiplies"
