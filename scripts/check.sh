#!/usr/bin/env bash
# Tier-1 verify + example smoke test, in one command.
#
#   scripts/check.sh                    # configure, build, ctest, smoke tests
#   scripts/check.sh --sanitize         # same under ASan+UBSan (build-asan/)
#   scripts/check.sh --sanitize=thread  # same under TSan (build-tsan/)
#   scripts/check.sh --werror           # warnings are errors (CI default)
#   scripts/check.sh --portable         # scalar-reference kernels only (build-portable/)
#   JOBS=4 scripts/check.sh             # cap build/test parallelism
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

BUILD_DIR=build
CMAKE_FLAGS=""
for arg in "$@"; do
  case "$arg" in
    --sanitize|--sanitize=address)
      BUILD_DIR=build-asan
      CMAKE_FLAGS="$CMAKE_FLAGS -DMICRONAS_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo"
      export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
      ;;
    --sanitize=thread)
      BUILD_DIR=build-tsan
      CMAKE_FLAGS="$CMAKE_FLAGS -DMICRONAS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo"
      export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
      ;;
    --werror)
      CMAKE_FLAGS="$CMAKE_FLAGS -DMICRONAS_WERROR=ON"
      ;;
    --portable)
      BUILD_DIR=build-portable
      CMAKE_FLAGS="$CMAKE_FLAGS -DMICRONAS_PORTABLE=ON"
      ;;
    *)
      echo "usage: $0 [--sanitize[=address|thread]] [--werror] [--portable]" >&2
      exit 2
      ;;
  esac
done

echo "== configure ($BUILD_DIR) =="
# shellcheck disable=SC2086  # CMAKE_FLAGS is intentionally word-split
cmake -B "$BUILD_DIR" -S . $CMAKE_FLAGS >/dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== ctest =="
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

echo "== smoke: quickstart =="
"./$BUILD_DIR/quickstart" --threads 2 >/dev/null
echo "quickstart OK"

echo "== smoke: bench_runner (eval_engine, small) =="
"./$BUILD_DIR/bench_runner" --filter eval_engine --set samples=8,sweep=200,max-threads=2 \
  --out "$BUILD_DIR/BENCH_smoke.json"
echo "bench_runner OK"

echo "== smoke: bench_compare (self-compare passes) =="
"./$BUILD_DIR/bench_compare" "$BUILD_DIR/BENCH_smoke.json" "$BUILD_DIR/BENCH_smoke.json" \
  --threshold 0.25 >/dev/null
echo "bench_compare OK"

echo "== smoke: pareto sweep (two targets, tiny) =="
"./$BUILD_DIR/pareto_sweep" --mcus m4,m7 --pop 8 --gens 2 --threads 2 >/dev/null
echo "pareto_sweep OK"

echo "== smoke: compile_and_run (lower + passes + int8 execute, reduced skeleton) =="
"./$BUILD_DIR/compile_and_run" --cells 1 --input 16 --runs 2 --threads 2 >/dev/null
echo "compile_and_run OK"

echo "== smoke: serve_bench (compile -> save -> load -> golden hash -> batched serve) =="
"./$BUILD_DIR/serve_bench" --clients 2 --requests 8 --max-batch 4 --threads 2 \
  --out "$BUILD_DIR/smoke.mnpkg" --golden tests/golden/compile_report.golden >/dev/null
echo "serve_bench OK"

echo "== smoke: serve_bench --mode overload (admission ledger balances under a burst) =="
"./$BUILD_DIR/serve_bench" --mode overload --package "$BUILD_DIR/smoke.mnpkg" --clients 2 \
  --requests 32 --max-queue 4 --deadline-us 500 >/dev/null
echo "serve_bench overload OK"

echo "== smoke: model registry (two packages, one process: mmap + dedup + routed serve) =="
"./$BUILD_DIR/serve_bench" --mode multi --clients 2 --requests 8 --max-batch 4 --threads 2 \
  --out "$BUILD_DIR/smoke_multi1.mnpkg" --out2 "$BUILD_DIR/smoke_multi2.mnpkg" >/dev/null
echo "model registry OK"

echo "== smoke: observability (trace + metrics written, strict re-parse) =="
"./$BUILD_DIR/compile_and_run" --cells 1 --input 16 --runs 1 --threads 1 \
  --trace-out "$BUILD_DIR/smoke_trace.json" \
  --metrics-out "$BUILD_DIR/smoke_metrics.json" >/dev/null 2>&1
"./$BUILD_DIR/json_validate" --require-key traceEvents "$BUILD_DIR/smoke_trace.json" >/dev/null
"./$BUILD_DIR/json_validate" --require-key histograms "$BUILD_DIR/smoke_metrics.json" >/dev/null
echo "observability OK"

echo "ALL CHECKS PASSED"
