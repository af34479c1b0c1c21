# Bench binaries land in a clean build/bench/ directory (no CMake
# bookkeeping files), so `for b in build/bench/*; do $b; done` runs the
# whole suite.
function(sds_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE sds_core sds_dissem sds_spec sds_net
                        sds_trace sds_util)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

sds_add_bench(abl_aging)
sds_add_bench(abl_allocation)
sds_add_bench(abl_closure)
sds_add_bench(abl_combined)
sds_add_bench(abl_hierarchy)
sds_add_bench(abl_push_vs_pull)
sds_add_bench(abl_queueing)
sds_add_bench(abl_staleness)
sds_add_bench(fig1_block_popularity)
sds_add_bench(fig2_storage_allocation)
sds_add_bench(fig3_dissemination_savings)
sds_add_bench(fig4_dependency_histogram)
sds_add_bench(fig5_speculation_baseline)
sds_add_bench(fig6_gains_vs_traffic)
sds_add_bench(fig7_availability)
sds_add_bench(fig8_resilience)
sds_add_bench(fig9_balance)
sds_add_bench(tab1_document_classes)
sds_add_bench(tab2_symmetric_cluster)
sds_add_bench(workload_fidelity)
sds_add_bench(seed_robustness)
sds_add_bench(scale_stream)
sds_add_bench(exp_update_cycle)
sds_add_bench(exp_maxsize)
sds_add_bench(exp_client_caching)
sds_add_bench(exp_cooperative_clients)
sds_add_bench(exp_prefetch_hybrid)

add_executable(micro_kernels ${CMAKE_SOURCE_DIR}/bench/micro_kernels.cpp)
target_link_libraries(micro_kernels PRIVATE sds_core sds_dissem sds_spec
                      sds_net sds_trace sds_util benchmark::benchmark)
target_include_directories(micro_kernels PRIVATE ${CMAKE_SOURCE_DIR})
set_target_properties(micro_kernels PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Bench command lines fail loudly: ParseBenchArgs rejects an unknown flag
# before any workload is built, so this costs milliseconds.
add_test(NAME bench_rejects_unknown_flag
         COMMAND exp_maxsize --smoke --no-such-flag)
set_tests_properties(bench_rejects_unknown_flag PROPERTIES WILL_FAIL TRUE)
