#!/usr/bin/env bash
# ASan+UBSan CI lane: build the whole tree (library, tests, benches,
# examples) with AddressSanitizer and UndefinedBehaviorSanitizer
# (LIBSPECTOR_SANITIZE=address enables both) and run the full ctest suite.
# Catches use-after-free, buffer overruns, leaks and UB on every decoder,
# fuzz and study path that tier-1 exercises, including both sha256
# compression kernels (tests/util/sha256_test runs the SHA-NI intrinsics
# directly) and the generated-apk digest golden.
#
# Usage: scripts/ci_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLIBSPECTOR_SANITIZE=address
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error makes UBSan findings fatal like ASan's; the stack traces
# name the offending frame.
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"

(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "ASan+UBSan lane: OK"
