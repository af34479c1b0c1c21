#ifndef SDS_PERFBENCH_LAYERS_H_
#define SDS_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/workload.h"
#include "workloads.h"

namespace perfbench {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Output checks of a run. Every failed check is reported on stderr and
/// counts into `failed`.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Expect(bool ok, const std::string& what);
};

/// Workload-property counters: how a workload uses the shared layers.
struct WorkloadProperties {
  /// Share of non-empty P rows whose contents change per model rebuild.
  double rows_changed_frac = 0.0;
  /// Client-cache evictions + session purges per inserted document.
  double evict_purge_frac = 0.0;
};

/// Computes the spec properties of `workload` (zeros on dissem_stream,
/// whose failover share comes from the pass itself).
WorkloadProperties MeasureProperties(WorkloadId id,
                                     const sds::core::Workload& workload);

/// The traced run: one untraced and one traced (audit ledger armed) pass
/// at `par_workers`, then direct timed calls into the public functions of
/// trace, spec, net and dissem. Returns every per-layer metric, zero for
/// layers the workload does not exercise. `reference`, if non-zero, is the
/// stored digest the passes must reproduce.
std::vector<Metric> RunTraced(WorkloadId id,
                              const sds::core::WorkloadConfig& config,
                              const sds::core::Workload& workload,
                              uint32_t par_workers,
                              uint64_t reference, Checks* checks);

}  // namespace perfbench

#endif  // SDS_PERFBENCH_LAYERS_H_
