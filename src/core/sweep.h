#ifndef SDS_CORE_SWEEP_H_
#define SDS_CORE_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace sds::core {

/// \brief Options controlling a parallel parameter sweep.
struct SweepOptions {
  /// Worker threads. 0 = auto: the SDS_SWEEP_WORKERS environment variable
  /// if set (it must be a positive integer), otherwise
  /// std::thread::hardware_concurrency(). The pool never exceeds the
  /// number of points.
  uint32_t workers = 0;
  /// Base seed for per-point RNG streams (see SweepPointSeed). Sweeps that
  /// draw no randomness are unaffected by it.
  uint64_t seed = 42;
};

/// Resolves the effective worker count for `requested` (0 = auto, see
/// SweepOptions::workers). Throws std::invalid_argument naming the
/// variable and its value when SDS_SWEEP_WORKERS is set to anything but a
/// positive integer.
uint32_t ResolveSweepWorkers(uint32_t requested);

/// \brief Deterministic-seeding contract of the sweep engine.
///
/// The RNG stream handed to point `index` is seeded with
/// SweepPointSeed(base_seed, index) — a pure function of the base seed and
/// the point index. It never depends on thread count, scheduling order, or
/// any shared mutable state, so a sweep's results are bit-identical across
/// serial and parallel execution and across any number of workers.
uint64_t SweepPointSeed(uint64_t base_seed, size_t index);

/// The RNG stream for point `index` under `base_seed`.
Rng MakePointRng(uint64_t base_seed, size_t index);

/// \brief Timing summary of one sweep.
struct SweepStats {
  size_t points = 0;
  /// Size of the worker pool actually used (after auto-resolution and
  /// clamping to the point count).
  uint32_t workers = 0;
  /// Elapsed wall-clock time of the whole sweep.
  double wall_seconds = 0.0;
  /// Sum of per-point wall-clock times: what a one-worker run of the same
  /// points would cost ("serial-equivalent time").
  double serial_seconds = 0.0;
  /// Per-point wall-clock times, indexed by point.
  std::vector<double> point_seconds;

  /// serial_seconds / wall_seconds (1 when the sweep did no work).
  double Speedup() const;
  /// One-line human-readable summary, e.g.
  /// "sweep: 12 points, 8 workers, wall 1.204 s, serial-equivalent
  /// 8.911 s, speedup 7.40x".
  std::string Summary() const;
};

/// \brief Runs `fn(index, rng)` for every index in [0, num_points) on a
/// fixed-size worker pool and returns timing statistics.
///
/// Points are independent: `fn` must not rely on other points having run.
/// Each invocation receives its own RNG stream (see SweepPointSeed), so
/// results must be written to per-index storage and are then identical
/// regardless of worker count. If any point throws, every remaining point
/// still runs, and the exception of the lowest-indexed failing point is
/// rethrown on the calling thread once the pool has drained.
SweepStats RunSweep(size_t num_points, const SweepOptions& options,
                    const std::function<void(size_t, Rng&)>& fn);

/// \brief Typed convenience over RunSweep: maps every point index through
/// `fn(index, rng)` and returns the results in point order. The result
/// type must be default-constructible. `stats`, if non-null, receives the
/// timing summary.
template <typename Fn>
auto SweepMap(size_t num_points, const SweepOptions& options, Fn&& fn,
              SweepStats* stats = nullptr)
    -> std::vector<std::invoke_result_t<Fn&, size_t, Rng&>> {
  using Result = std::invoke_result_t<Fn&, size_t, Rng&>;
  std::vector<Result> results(num_points);
  SweepStats local = RunSweep(
      num_points, options,
      [&results, &fn](size_t index, Rng& rng) { results[index] = fn(index, rng); });
  if (stats != nullptr) *stats = std::move(local);
  return results;
}

}  // namespace sds::core

#endif  // SDS_CORE_SWEEP_H_
