/// \file
/// Section 3.4 "Stability of the P and P* relations": trace simulations of
/// a speculative server that re-estimates P/P* every D days from the
/// previous D' days of history.
///
/// Paper anchors: vs a 1-day update cycle, a 7-day cycle degrades the
/// metrics by ~3% absolute and a 60-day cycle by ~7%; shortening D' from
/// 60 to 30 days improves performance ~5% (recency beats volume).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiments.h"

int main(int argc, char** argv) {
  using namespace sds;
  [[maybe_unused]] const bench::BenchArgs bench_args =
      bench::ParseBenchArgs(argc, argv);
  bench::BenchReport bench_report("exp_update_cycle");
  const bench::Stopwatch bench_total;
  bench::PrintHeader("exp_update_cycle",
                     "Section 3.4 stability of P and P* (D, D')");
  const core::Workload workload = bench_report.Stage(
      "workload", [&] { return bench::MakeBenchWorkload(bench_args); });
  bench::PrintWorkloadSummary(workload);

  const core::ExpUpdateCycleResult result = bench_report.Stage(
      "run", [&] { return core::RunExpUpdateCycle(workload); });
  std::printf("%s\n", result.ToTable().ToAlignedString().c_str());
  std::printf("%s\n\n", result.sweep.Summary().c_str());

  std::printf("paper: D=7 degrades ~3%% absolute, D=60 ~7%% (vs D=1);\n"
              "       D'=30 improves ~5%% over D'=60.\n");
  bench_report.Metric("total_s", bench_total.Seconds());
  return bench::FinishBench(&bench_report, bench_args);
}
