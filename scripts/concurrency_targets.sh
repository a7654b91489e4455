# The concurrent-subsystem test binaries, shared by the TSan lane
# (scripts/ci_tsan.sh) and the stress lane (scripts/ci_stress.sh). Kept
# explicit so the lanes stay fast as the tree grows; extend when a new
# subsystem goes multi-threaded. Sourced, not run.
# shellcheck disable=SC2034  # read by the sourcing script
CONCURRENCY_TARGETS=(
  ingest_router_test
  ingest_pipeline_test
  ingest_stress_test
  ingest_dict_test
  dispatcher_test
  frame_table_cache_test
  study_test
  recovery_test
  database_test
  prefetch_test
  prefetch_determinism_test
  symbol_pool_test
  attribution_program_test
  flow_columns_test
  seed_differential_test
  spectord_protocol_test
  spectord_daemon_test
  spectord_cluster_test
  spectord_fuzz_test
  spectord_resilient_test
  spectord_chaos_cluster_test
  scenario_matrix_test
)
