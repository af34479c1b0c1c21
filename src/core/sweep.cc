#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/audit.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sds::core {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

uint32_t ResolveSweepWorkers(uint32_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SDS_SWEEP_WORKERS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || value <= 0) {
      throw std::invalid_argument(std::string("SDS_SWEEP_WORKERS=\"") + env +
                                  "\" is not a positive integer");
    }
    // Out-of-range counts clamp; RunSweep clamps again to its points.
    return static_cast<uint32_t>(
        std::min<long>(value, std::numeric_limits<uint32_t>::max()));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

uint64_t SweepPointSeed(uint64_t base_seed, size_t index) {
  // Two rounds of splitmix64 finalization decorrelate consecutive indices
  // and consecutive base seeds; the constant keeps index 0 away from the
  // raw base seed.
  return Rng::Mix(base_seed ^ Rng::Mix(0x7364735f73776570ull + index));
}

Rng MakePointRng(uint64_t base_seed, size_t index) {
  return Rng(SweepPointSeed(base_seed, index));
}

double SweepStats::Speedup() const {
  return wall_seconds > 0.0 ? serial_seconds / wall_seconds : 1.0;
}

std::string SweepStats::Summary() const {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "sweep: %zu points, %u workers, wall %.3f s, "
                "serial-equivalent %.3f s, speedup %.2fx",
                points, workers, wall_seconds, serial_seconds, Speedup());
  return buffer;
}

SweepStats RunSweep(size_t num_points, const SweepOptions& options,
                    const std::function<void(size_t, Rng&)>& fn) {
  SweepStats stats;
  stats.points = num_points;
  stats.point_seconds.assign(num_points, 0.0);
  const uint64_t max_pool =
      std::max<uint64_t>(uint64_t{1}, static_cast<uint64_t>(num_points));
  stats.workers = static_cast<uint32_t>(std::min<uint64_t>(
      ResolveSweepWorkers(options.workers), max_pool));
  if (num_points == 0) return stats;

  // One slot per point: exceptions are collected, not propagated eagerly,
  // so which points ran never depends on scheduling.
  std::vector<std::exception_ptr> errors(num_points);
  const auto wall_start = Clock::now();

  auto run_point = [&](size_t index) {
    const auto point_start = Clock::now();
    // Queue time: how long this point sat waiting behind earlier points
    // on the same worker pool before it started executing.
    const double queue_s = SecondsSince(wall_start);
    Rng rng = MakePointRng(options.seed, index);
    try {
      obs::ScopedPoint scoped_point(static_cast<int64_t>(index));
      // Journey sampling is keyed on the same per-point seed as the
      // simulation RNG, so the sampled set is a pure function of
      // (base seed, point index, request index) — worker-count invariant.
      obs::ScopedJourneySeed journey_seed(SweepPointSeed(options.seed, index));
      obs::SpanGuard point_span("sweep.point");
      fn(index, rng);
    } catch (...) {
      errors[index] = std::current_exception();
    }
    stats.point_seconds[index] = SecondsSince(point_start);
    if (obs::Enabled()) {
      obs::Observe("sweep.point_wall_s", stats.point_seconds[index]);
      obs::Observe("sweep.point_queue_s", queue_s);
    }
  };

  if (stats.workers == 1) {
    // Serial fast path: no threads, same seeding and ordering contract.
    for (size_t i = 0; i < num_points; ++i) run_point(i);
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < num_points;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        run_point(i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(stats.workers);
    for (uint32_t w = 0; w < stats.workers; ++w) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }

  stats.wall_seconds = SecondsSince(wall_start);
  for (const double s : stats.point_seconds) stats.serial_seconds += s;
  if (obs::Enabled()) {
    obs::Count("sweep.runs");
    obs::Count("sweep.points", static_cast<double>(num_points));
  }
  // All workers joined: the snapshot is coherent, so re-check every
  // registered conservation edge (globally and per sweep point). No-op
  // unless auditing is enabled.
  obs::AuditCheckpoint("sweep.join");

  // Deterministic propagation: the lowest-indexed failure wins regardless
  // of which worker hit it first.
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return stats;
}

}  // namespace sds::core
