/// \file
/// Section 3.4 "Effect of Document Size": sweep of MaxSize, the largest
/// document the server is willing to push speculatively.
///
/// Paper anchors: an optimal MaxSize exists per traffic budget (15 KB when
/// ~3% extra bandwidth is tolerable, 29 KB for ~10%); speculation pays off
/// most for small documents.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace sds;
  [[maybe_unused]] const bench::BenchArgs bench_args =
      bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("exp_maxsize");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("exp_maxsize", "Section 3.4 effect of MaxSize");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::ExpMaxSizeResult result = bench_report.Stage(
      "run", [&] { return core::RunExpMaxSize(workload); });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("%s\n\n", result.sweep.Summary().c_str());
  std::printf("paper: optimum MaxSize ~15 KB at ~3%% extra traffic, "
              "~29 KB at ~10%%.\n");
  // Each row's Evaluate replays the trace twice (speculative + kNone).
  double replayed = 0.0;
  for (const auto& row : result.rows) {
    replayed +=
        static_cast<double>(row.metrics.with_speculation.client_requests +
                            row.metrics.without_speculation.client_requests);
  }
  bench_report.RequestsProcessed(replayed);
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
