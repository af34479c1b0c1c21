#ifndef SDS_PERFBENCH_WORKLOADS_H_
#define SDS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "core/sweep.h"
#include "core/workload.h"
#include "net/faults.h"
#include "spec/simulator.h"

namespace perfbench {

/// The benchmark's named workloads (perfbench/README.md says why each
/// exists).
enum class WorkloadId : uint8_t {
  /// Paper-scale batch workload, the Figure 5 T_p sweep.
  kSpecPaper = 0,
  /// Batch workload with heavy link/document churn, short history, finite
  /// session caches and server outages under the protection stack.
  kSpecChurn = 1,
  /// Streamed workload (>= 1M clean requests), a reduced Figure 9 grid.
  kDissemStream = 2,
};

/// Parses a workload name; returns false for an unknown one.
bool ParseWorkload(const std::string& name, WorkloadId* id);
const char* WorkloadName(WorkloadId id);
bool IsSpecWorkload(WorkloadId id);

/// Base sweep seed of every pass: it draws the outage schedules, the retry
/// jitter and the d-choice samples. It is fixed so that these draws are
/// part of the workload's definition and `--seed` varies only the
/// generated workload (corpus, link graph, trace, topology).
inline constexpr uint64_t kScenarioSeed = 42;

/// Generator parameters of a workload. `seed` seeds the generator; `smoke`
/// shrinks the input for the self-test.
sds::core::WorkloadConfig MakeWorkloadConfig(WorkloadId id, uint64_t seed,
                                             bool smoke);

/// T_p points a spec workload sweeps (empty for dissem_stream).
std::vector<double> SpecGrid(WorkloadId id);

/// Speculation config of one T_p point of a spec workload. For spec_churn
/// `faults` is the outage schedule (ChurnFaultSchedule) and
/// `retry_jitter_seed` seeds the retry jitter stream.
sds::spec::SpeculationConfig SpecPointConfig(
    WorkloadId id, double tp, const sds::net::FaultSchedule* faults,
    uint64_t retry_jitter_seed);

/// spec_churn's server-outage schedule over `workload`'s span.
sds::net::FaultSchedule ChurnFaultSchedule(
    const sds::core::Workload& workload);

/// The dissem_stream Figure 9 grid.
struct Fig9Grid {
  std::vector<double> storage_fractions;
  std::vector<uint32_t> proxies;
  std::vector<uint32_t> d_values;
};
Fig9Grid DissemGrid();

/// Result of one replay pass: the workload's experiment run once on a
/// fixed worker count.
struct PassResult {
  /// FNV-1a digest over every result field of the pass (bit patterns of
  /// the doubles), in point order.
  uint64_t digest = 0;
  /// Requests consumed by replays: one spec Run or one dissemination
  /// replay consumes every request of the clean stream once.
  uint64_t requests_replayed = 0;
  double wall_s = 0.0;
  sds::core::SweepStats sweep;
  /// dissem_stream: failover requests / evaluated requests over the
  /// faulted cells of the grid (0 on spec workloads).
  double failover_frac = 0.0;
  /// dissem_stream: the grid's results.
  std::optional<sds::core::Fig9Result> fig9;
};

/// Runs one pass of `id` over `workload` with `workers` sweep workers.
PassResult RunPass(WorkloadId id, const sds::core::Workload& workload,
                   uint32_t workers);

/// 64-bit FNV-1a over a sequence of result fields.
class Digest {
 public:
  void Add(uint64_t value);
  void Add(double value);
  void Add(const std::vector<uint64_t>& values);
  void Add(const std::vector<double>& values);
  void Add(const std::vector<uint32_t>& values);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddRunTotals(const sds::spec::RunTotals& totals, Digest* digest);
void AddDissemResult(const sds::dissem::DisseminationResult& result,
                     Digest* digest);

}  // namespace perfbench

#endif  // SDS_PERFBENCH_WORKLOADS_H_
