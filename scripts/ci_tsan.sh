#!/usr/bin/env bash
# TSan CI lane: build the concurrent subsystems under ThreadSanitizer and
# run the tests that exercise them — the ingest tier (sharded router,
# pipeline, chaos channel, v3 dictionary path), the dispatcher fleet and
# its shared frame-table LRU cache, the job-prefetch generator pool, the
# lock-free-read symbol pool, the shared attributor (compiled attribution
# program and cross-run frame cache, raced by 8 threads in the seed
# differential) and the columnar fold that
# concurrent shard workers run through, and the spectord daemon (event loop
# vs. client threads vs. shard consumers, plus the multi-collector
# runCollector study runner and the resilient client tier —
# reconnect/resume under BreakerEndpoint kills runs client threads against
# breaker pump threads against the daemon loop), and the scenario
# conformance matrix (golden-pinned studies at 0/1/2/8 workers and 1/2/4
# collectors with the keep-alive/adversarial/background-sync flags on). A
# data race here corrupts studies silently, so this lane gates every change
# to the streaming path. TSan cannot see a wrong publication order that is not a
# data race; scripts/ci_stress.sh repeats the same binaries for that.
#
# Usage: scripts/ci_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLIBSPECTOR_SANITIZE=thread

# shellcheck source=scripts/concurrency_targets.sh
source scripts/concurrency_targets.sh
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${CONCURRENCY_TARGETS[@]}"

# halt_on_error: a single race fails the lane; second_deadlock_stack helps
# diagnose lock-order findings in the shard consumers.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)" \
  -R 'Ingest|Dispatcher|StudyRunner|Recovery|Database|Prefetch|Symbol|AttributionProgram|FlowColumns|Columnar|SeedDifferential|FrameTableCache|Spectord|Reconnector|ScenarioMatrix')

echo "TSan lane: OK"
