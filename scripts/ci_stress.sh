#!/usr/bin/env bash
# Stress CI lane: a Release build of the concurrent-subsystem test binaries
# (scripts/concurrency_targets.sh, the same list the TSan lane runs), each
# run REPEAT times with --gtest_shuffle, stopping at the first failure.
# TSan only sees data races; a wrong publication order that is not a race
# (an atomic published before the data it guards) shows up only as a
# rare wrong answer, so this lane repeats every concurrency test until a
# one-in-a-hundred interleaving has had its chance.
#
# Runtime: about 6 minutes on a 4-core x86-64 box with REPEAT=10,
# measured including a cold build of the targets.
#
# Usage: scripts/ci_stress.sh [build-dir]   (default: build-stress)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-stress}"
REPEAT=10

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release

# shellcheck source=scripts/concurrency_targets.sh
source scripts/concurrency_targets.sh
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${CONCURRENCY_TARGETS[@]}"

for target in "${CONCURRENCY_TARGETS[@]}"; do
  echo "== $target x$REPEAT (shuffled)"
  "$BUILD_DIR/tests/$target" --gtest_repeat="$REPEAT" --gtest_shuffle \
    --gtest_fail_fast --gtest_brief=1
done

echo "Stress lane: OK"
