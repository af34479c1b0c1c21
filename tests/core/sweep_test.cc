/// Determinism suite for the parallel sweep engine: the same sweep run at
/// 1, 2 and hardware_concurrency workers must be bit-identical, exceptions
/// must propagate deterministically, and per-point RNG streams must be
/// pure functions of (base seed, point index). Also pins golden values for
/// the paper-figure experiments so the sweep refactor provably does not
/// change any figure.

#include "core/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.h"
#include "core/workload.h"

namespace sds::core {
namespace {

// ---------------------------------------------------------------------------
// Engine basics and edge cases
// ---------------------------------------------------------------------------

TEST(SweepEngineTest, ZeroPointsIsANoOp) {
  size_t calls = 0;
  const SweepStats stats =
      RunSweep(0, {.workers = 4}, [&](size_t, Rng&) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(stats.points, 0u);
  EXPECT_TRUE(stats.point_seconds.empty());
  EXPECT_DOUBLE_EQ(stats.serial_seconds, 0.0);
}

TEST(SweepEngineTest, OnePointRunsExactlyOnce) {
  std::atomic<int> calls{0};
  const SweepStats stats =
      RunSweep(1, {.workers = 8}, [&](size_t index, Rng&) {
        EXPECT_EQ(index, 0u);
        ++calls;
      });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(stats.points, 1u);
  // The pool never exceeds the point count.
  EXPECT_EQ(stats.workers, 1u);
}

TEST(SweepEngineTest, EveryPointRunsExactlyOnce) {
  constexpr size_t kPoints = 100;
  std::vector<std::atomic<int>> counts(kPoints);
  const SweepStats stats = RunSweep(kPoints, {.workers = 4},
                                    [&](size_t index, Rng&) {
                                      ++counts[index];
                                    });
  for (size_t i = 0; i < kPoints; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "point " << i;
  }
  EXPECT_EQ(stats.workers, 4u);
  ASSERT_EQ(stats.point_seconds.size(), kPoints);
  double sum = 0.0;
  for (const double s : stats.point_seconds) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_DOUBLE_EQ(stats.serial_seconds, sum);
  EXPECT_NE(stats.Summary().find("100 points"), std::string::npos);
}

TEST(SweepEngineTest, EnvVariableOverridesAutoWorkerCount) {
  ASSERT_EQ(setenv("SDS_SWEEP_WORKERS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveSweepWorkers(0), 3u);
  // An explicit request always wins over the environment.
  EXPECT_EQ(ResolveSweepWorkers(7), 7u);
  // Anything but a positive integer fails loudly, naming the variable and
  // the value, instead of silently falling back to the hardware count.
  for (const char* bad : {"garbage", "0", "3x"}) {
    ASSERT_EQ(setenv("SDS_SWEEP_WORKERS", bad, 1), 0);
    try {
      ResolveSweepWorkers(0);
      ADD_FAILURE() << "expected a throw for SDS_SWEEP_WORKERS=" << bad;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("SDS_SWEEP_WORKERS"), std::string::npos);
      EXPECT_NE(message.find(std::string("\"") + bad + "\""),
                std::string::npos)
          << message;
    }
    // An explicit request never reads the environment.
    EXPECT_EQ(ResolveSweepWorkers(7), 7u);
  }
  unsetenv("SDS_SWEEP_WORKERS");
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(ResolveSweepWorkers(0), hw > 0 ? hw : 1u);
}

// ---------------------------------------------------------------------------
// Exception propagation
// ---------------------------------------------------------------------------

TEST(SweepEngineTest, ExceptionFromAPointPropagates) {
  for (const uint32_t workers : {1u, 4u}) {
    EXPECT_THROW(
        RunSweep(8, {.workers = workers},
                 [](size_t index, Rng&) {
                   if (index == 5) throw std::runtime_error("point 5 failed");
                 }),
        std::runtime_error)
        << "workers=" << workers;
  }
}

TEST(SweepEngineTest, LowestIndexedFailureWinsDeterministically) {
  for (const uint32_t workers : {1u, 2u, 8u}) {
    std::string message;
    std::atomic<int> calls{0};
    try {
      RunSweep(16, {.workers = workers}, [&](size_t index, Rng&) {
        ++calls;
        if (index % 3 == 1) {  // points 1, 4, 7, 10, 13 fail
          throw std::runtime_error("failed " + std::to_string(index));
        }
      });
      FAIL() << "expected an exception at workers=" << workers;
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    EXPECT_EQ(message, "failed 1") << "workers=" << workers;
    // A failing point does not cancel the rest of the sweep.
    EXPECT_EQ(calls.load(), 16) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Per-point RNG stream properties (deterministic-seeding contract)
// ---------------------------------------------------------------------------

TEST(SweepPointRngTest, SameIndexYieldsSameStream) {
  for (const size_t index : {size_t{0}, size_t{1}, size_t{31}, size_t{4095}}) {
    Rng a = MakePointRng(42, index);
    Rng b = MakePointRng(42, index);
    for (int draw = 0; draw < 64; ++draw) {
      ASSERT_EQ(a.Next(), b.Next()) << "index " << index;
    }
  }
}

TEST(SweepPointRngTest, DistinctIndicesYieldDistinctStreams) {
  constexpr size_t kStreams = 4096;
  std::set<uint64_t> seeds;
  std::set<uint64_t> first_draws;
  for (size_t i = 0; i < kStreams; ++i) {
    seeds.insert(SweepPointSeed(42, i));
    first_draws.insert(MakePointRng(42, i).Next());
  }
  EXPECT_EQ(seeds.size(), kStreams);
  EXPECT_EQ(first_draws.size(), kStreams);
}

TEST(SweepPointRngTest, BaseSeedSeparatesSweeps) {
  for (size_t index = 0; index < 256; ++index) {
    EXPECT_NE(SweepPointSeed(1, index), SweepPointSeed(2, index))
        << "index " << index;
  }
}

TEST(SweepPointRngTest, StreamsAreStatisticallyIndependent) {
  // No cross-point correlation via shared state: each stream's draws
  // depend only on its own seed. Check that first draws across indices
  // look uniform (mean of U(0,1) within 4 sigma) and that consecutive
  // indices do not produce correlated first draws.
  constexpr size_t kStreams = 4096;
  double sum = 0.0;
  double lag_product = 0.0;
  double prev = 0.0;
  for (size_t i = 0; i < kStreams; ++i) {
    const double u = MakePointRng(42, i).NextDouble();
    sum += u;
    if (i > 0) lag_product += (prev - 0.5) * (u - 0.5);
    prev = u;
  }
  const double mean = sum / kStreams;
  // sigma of the mean = 1/sqrt(12 * n) ~ 0.0045 for n = 4096.
  EXPECT_NEAR(mean, 0.5, 0.02);
  // Lag-1 covariance of independent U(0,1) has sigma ~ 1/(12 sqrt(n)).
  EXPECT_NEAR(lag_product / (kStreams - 1), 0.0, 0.006);
}

// ---------------------------------------------------------------------------
// Parallel == serial on RNG-dependent work
// ---------------------------------------------------------------------------

std::vector<uint64_t> RngSweepDigest(uint32_t workers) {
  constexpr size_t kPoints = 64;
  std::vector<uint64_t> digests(kPoints);
  RunSweep(kPoints, {.workers = workers, .seed = 7}, [&](size_t i, Rng& rng) {
    uint64_t digest = 0;
    for (int draw = 0; draw < 1000; ++draw) {
      digest = Rng::Mix(digest ^ rng.Next());
    }
    digests[i] = digest;
  });
  return digests;
}

TEST(SweepEngineTest, ParallelEqualsSerialBitForBit) {
  const std::vector<uint64_t> serial = RngSweepDigest(1);
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  EXPECT_EQ(serial, RngSweepDigest(2));
  EXPECT_EQ(serial, RngSweepDigest(hw));
  EXPECT_EQ(serial, RngSweepDigest(16));
}

// ---------------------------------------------------------------------------
// Determinism of the refactored paper experiments
// ---------------------------------------------------------------------------

class SweepExperimentsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new Workload(MakeWorkload(SmallConfig()));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }
  static Workload* workload_;
};

Workload* SweepExperimentsTest::workload_ = nullptr;

TEST_F(SweepExperimentsTest, Fig3TableIsIdenticalForAnyWorkerCount) {
  const Fig3Result serial = RunFig3(*workload_, 4, {.workers = 1});
  const std::string serial_table = serial.ToTable().ToAlignedString();
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  for (const uint32_t workers : {2u, hw}) {
    const Fig3Result parallel = RunFig3(*workload_, 4, {.workers = workers});
    // Byte-identical rendered table and bit-identical metric vectors.
    EXPECT_EQ(serial_table, parallel.ToTable().ToAlignedString())
        << "workers=" << workers;
    EXPECT_EQ(serial.saved_top10, parallel.saved_top10);
    EXPECT_EQ(serial.saved_top4, parallel.saved_top4);
    EXPECT_EQ(serial.storage_top10, parallel.storage_top10);
    EXPECT_EQ(serial.saved_top10_tailored, parallel.saved_top10_tailored);
  }
}

TEST_F(SweepExperimentsTest, Fig5TablesAreIdenticalForAnyWorkerCount) {
  const std::vector<double> grid = {1.0, 0.5, 0.2, 0.1};
  const Fig5Result serial = RunFig5(*workload_, grid, {.workers = 1});
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  for (const uint32_t workers : {2u, hw}) {
    const Fig5Result parallel = RunFig5(*workload_, grid, {.workers = workers});
    EXPECT_EQ(serial.ToTable().ToAlignedString(),
              parallel.ToTable().ToAlignedString())
        << "workers=" << workers;
    EXPECT_EQ(serial.ToFig6Table().ToAlignedString(),
              parallel.ToFig6Table().ToAlignedString())
        << "workers=" << workers;
    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(serial.points[i].metrics.bandwidth_ratio,
                parallel.points[i].metrics.bandwidth_ratio);
      EXPECT_EQ(serial.points[i].metrics.server_load_ratio,
                parallel.points[i].metrics.server_load_ratio);
      EXPECT_EQ(serial.points[i].metrics.service_time_ratio,
                parallel.points[i].metrics.service_time_ratio);
      EXPECT_EQ(serial.points[i].metrics.miss_rate_ratio,
                parallel.points[i].metrics.miss_rate_ratio);
    }
  }
}

TEST_F(SweepExperimentsTest, Fig7FaultInjectionIsIdenticalForAnyWorkerCount) {
  // Fault injection draws failure schedules and retry jitter; all of it
  // must come from per-point streams so the contract still holds.
  const std::vector<double> rates = {0.0, 0.05, 0.1};
  const std::vector<uint32_t> proxies = {1, 2, 4};
  const Fig7Result serial = RunFig7(*workload_, rates, proxies, {.workers = 1});
  const std::string serial_table = serial.ToTable().ToAlignedString();
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  for (const uint32_t workers : {2u, hw}) {
    const Fig7Result parallel =
        RunFig7(*workload_, rates, proxies, {.workers = workers});
    EXPECT_EQ(serial_table, parallel.ToTable().ToAlignedString())
        << "workers=" << workers;
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (size_t i = 0; i < serial.cells.size(); ++i) {
      EXPECT_EQ(serial.cells[i].unavailable_requests,
                parallel.cells[i].unavailable_requests) << i;
      EXPECT_EQ(serial.cells[i].retry_attempts,
                parallel.cells[i].retry_attempts) << i;
      EXPECT_EQ(serial.cells[i].with_proxies_bytes_hops,
                parallel.cells[i].with_proxies_bytes_hops) << i;
      EXPECT_EQ(serial.cells[i].retry_wait_seconds,
                parallel.cells[i].retry_wait_seconds) << i;
      EXPECT_EQ(serial.cells[i].degraded_bytes_hops,
                parallel.cells[i].degraded_bytes_hops) << i;
    }
  }
  // The zero-rate row must behave exactly like the fault-free simulator:
  // no unavailability, no retries, and strictly positive savings.
  for (size_t col = 0; col < proxies.size(); ++col) {
    const auto& cell = serial.cell(0, col);
    EXPECT_EQ(cell.unavailable_requests, 0u);
    EXPECT_EQ(cell.retry_attempts, 0u);
    EXPECT_GT(cell.saved_fraction, 0.0);
  }
  // At a positive failure rate, more proxies never increase unavailability.
  for (size_t row = 1; row < rates.size(); ++row) {
    for (size_t col = 1; col < proxies.size(); ++col) {
      EXPECT_LE(serial.cell(row, col).unavailable_fraction,
                serial.cell(row, col - 1).unavailable_fraction)
          << "rate " << rates[row] << " proxies " << proxies[col];
    }
  }
}

TEST_F(SweepExperimentsTest, Fig8ResilienceIsIdenticalForAnyWorkerCount) {
  // The resilience sweep layers the protection stacks on top of fault
  // injection; schedules, brownouts, breakers, and budgets must all stay
  // on per-point streams.
  const Fig8Result serial = RunFig8(*workload_, {}, {.workers = 1});
  const std::string serial_table = serial.ToTable().ToAlignedString();
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  for (const uint32_t workers : {2u, hw}) {
    const Fig8Result parallel = RunFig8(*workload_, {}, {.workers = workers});
    EXPECT_EQ(serial_table, parallel.ToTable().ToAlignedString())
        << "workers=" << workers;
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (size_t i = 0; i < serial.cells.size(); ++i) {
      EXPECT_EQ(serial.cells[i].sim.unavailable_requests,
                parallel.cells[i].sim.unavailable_requests) << i;
      EXPECT_EQ(serial.cells[i].sim.retry_attempts,
                parallel.cells[i].sim.retry_attempts) << i;
      EXPECT_EQ(serial.cells[i].sim.emergent_brownouts,
                parallel.cells[i].sim.emergent_brownouts) << i;
      EXPECT_EQ(serial.cells[i].sim.breaker_open_transitions,
                parallel.cells[i].sim.breaker_open_transitions) << i;
      EXPECT_EQ(serial.cells[i].sim.retries_suppressed_by_budget,
                parallel.cells[i].sim.retries_suppressed_by_budget) << i;
      EXPECT_EQ(serial.cells[i].sim.with_proxies_bytes_hops,
                parallel.cells[i].sim.with_proxies_bytes_hops) << i;
      EXPECT_EQ(serial.cells[i].scheduled_events,
                parallel.cells[i].scheduled_events) << i;
    }
  }

  const auto level_index = [&](Fig8Protection level) {
    const auto it =
        std::find(serial.levels.begin(), serial.levels.end(), level);
    return static_cast<size_t>(it - serial.levels.begin());
  };
  const size_t off = level_index(Fig8Protection::kOff);
  const size_t brk = level_index(Fig8Protection::kBreakers);
  const size_t full = level_index(Fig8Protection::kFull);

  bool saw_off_retries = false;
  bool saw_breaker_opens = false;
  for (size_t row = 0; row < serial.failure_rates.size(); ++row) {
    const auto& c_off = serial.cell(row, off);
    const auto& c_brk = serial.cell(row, brk);
    const auto& c_full = serial.cell(row, full);
    // Every arm of a row replays the same shared fault schedule.
    EXPECT_EQ(c_off.scheduled_events, c_brk.scheduled_events) << row;
    EXPECT_EQ(c_off.scheduled_events, c_full.scheduled_events) << row;
    // Self-protection never costs availability at any swept rate...
    EXPECT_GE(c_brk.availability, c_off.availability) << row;
    EXPECT_GE(c_full.availability, c_off.availability) << row;
    // ...and never manufactures more emergent failure than no defense.
    EXPECT_LE(c_full.sim.emergent_brownouts, c_off.sim.emergent_brownouts)
        << row;
    // Wherever the unprotected arm retried at all, the budgeted stack's
    // retry amplification is strictly lower.
    if (c_off.sim.retry_attempts > 0) {
      saw_off_retries = true;
      EXPECT_LT(c_full.retry_amplification, c_off.retry_amplification)
          << row;
      EXPECT_LT(c_brk.retry_amplification, c_off.retry_amplification)
          << row;
    }
    EXPECT_EQ(c_off.sim.breaker_open_transitions, 0u) << row;
    saw_breaker_opens |= c_brk.sim.breaker_open_transitions > 0;
  }
  EXPECT_TRUE(saw_off_retries);
  EXPECT_TRUE(saw_breaker_opens);

  // The zero-rate row injects nothing: full availability in every arm.
  for (const size_t col : {off, brk, full}) {
    const auto& cell = serial.cell(0, col);
    EXPECT_EQ(cell.scheduled_events, 0u);
    EXPECT_EQ(cell.sim.unavailable_requests, 0u);
    EXPECT_EQ(cell.availability, 1.0);
  }
}

TEST_F(SweepExperimentsTest, Fig9BalanceIsIdenticalForAnyWorkerCount) {
  // The balance sweep adds per-point d-choice sampling on top of the
  // shared fault schedule; both must stay on deterministic streams.
  const std::vector<double> storages = {0.10};
  const std::vector<uint32_t> proxies = {2, 4};
  const std::vector<uint32_t> ds = {2};
  const Fig9Result serial =
      RunFig9(*workload_, storages, proxies, ds, {.workers = 1});
  const std::string serial_table = serial.ToTable().ToAlignedString();
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  for (const uint32_t workers : {2u, hw}) {
    const Fig9Result parallel =
        RunFig9(*workload_, storages, proxies, ds, {.workers = workers});
    EXPECT_EQ(serial_table, parallel.ToTable().ToAlignedString())
        << "workers=" << workers;
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (size_t i = 0; i < serial.cells.size(); ++i) {
      EXPECT_EQ(serial.cells[i].sim.proxy_requests,
                parallel.cells[i].sim.proxy_requests) << i;
      EXPECT_EQ(serial.cells[i].sim.with_proxies_bytes_hops,
                parallel.cells[i].sim.with_proxies_bytes_hops) << i;
      EXPECT_EQ(serial.cells[i].sim.load_imbalance_max_mean,
                parallel.cells[i].sim.load_imbalance_max_mean) << i;
      EXPECT_EQ(serial.cells[i].sim.unavailable_requests,
                parallel.cells[i].sim.unavailable_requests) << i;
      EXPECT_EQ(serial.cells[i].availability,
                parallel.cells[i].availability) << i;
    }
  }

  const auto arm_index = [&](Fig9Policy policy, uint32_t d, bool faulted) {
    for (size_t i = 0; i < serial.arms.size(); ++i) {
      if (serial.arms[i].policy == policy && serial.arms[i].d == d &&
          serial.arms[i].faulted == faulted) {
        return i;
      }
    }
    return size_t{0};
  };
  for (size_t row = 0; row < serial.rows.size(); ++row) {
    const auto& c_static =
        serial.cell(row, arm_index(Fig9Policy::kStatic, 1, false));
    const auto& c_d2 =
        serial.cell(row, arm_index(Fig9Policy::kDChoice, 2, false));
    const auto& c_prox =
        serial.cell(row, arm_index(Fig9Policy::kProximity, 1, false));
    // Two choices beat one: at equal storage the randomized arm's max/mean
    // proxy load is no worse than the static optimum's (strictly better
    // whenever the static split is skewed at all).
    EXPECT_LE(c_d2.sim.load_imbalance_max_mean,
              c_static.sim.load_imbalance_max_mean) << "row " << row;
    // Fault-free arms are fully available and all save bandwidth.
    for (const auto* c : {&c_static, &c_d2, &c_prox}) {
      EXPECT_EQ(c->sim.unavailable_requests, 0u) << "row " << row;
      EXPECT_EQ(c->availability, 1.0) << "row " << row;
      EXPECT_GT(c->sim.saved_fraction, 0.0) << "row " << row;
    }
    // Faulted arms replay a shared non-empty schedule.
    const auto& f_static =
        serial.cell(row, arm_index(Fig9Policy::kStatic, 1, true));
    EXPECT_LT(f_static.availability, 1.0) << "row " << row;
    EXPECT_GT(f_static.availability, 0.5) << "row " << row;
  }
}

TEST_F(SweepExperimentsTest, FineTuningSweepsAreIdenticalForAnyWorkerCount) {
  const std::string maxsize_serial =
      RunExpMaxSize(*workload_, 0.2, {.workers = 1}).ToTable()
          .ToAlignedString();
  EXPECT_EQ(maxsize_serial,
            RunExpMaxSize(*workload_, 0.2, {.workers = 4}).ToTable()
                .ToAlignedString());
  const std::string coop_serial =
      RunExpCooperative(*workload_, {.workers = 1}).ToTable()
          .ToAlignedString();
  EXPECT_EQ(coop_serial,
            RunExpCooperative(*workload_, {.workers = 4}).ToTable()
                .ToAlignedString());
  // The §3.4 (D, D') grid: its D > 1 rows rebuild P only every D days.
  const std::string update_cycle_serial =
      RunExpUpdateCycle(*workload_, 0.25, {.workers = 1}).ToTable()
          .ToAlignedString();
  EXPECT_EQ(update_cycle_serial,
            RunExpUpdateCycle(*workload_, 0.25, {.workers = 4}).ToTable()
                .ToAlignedString());
}

// ---------------------------------------------------------------------------
// Golden regression: pin the paper-figure numbers (SmallConfig workload,
// default seeds) so the sweep engine provably does not change any figure.
// Values recorded from the serial path at the time the engine landed.
// ---------------------------------------------------------------------------

TEST_F(SweepExperimentsTest, GoldenFig1Coverage) {
  const Fig1Result result = RunFig1(*workload_);
  EXPECT_NEAR(result.top_half_percent_coverage, 0.41904024890974473, 1e-9);
  EXPECT_NEAR(result.top_ten_percent_coverage, 0.92399951633502864, 1e-9);
  EXPECT_EQ(result.accessed_docs, 170u);
  EXPECT_EQ(result.total_docs, 332u);
}

TEST(SweepGoldenTest, GoldenTab2WorkedNumbers) {
  const Tab2Result result = RunTab2();
  EXPECT_NEAR(result.storage_10_servers_90pct, 36859053.833744928, 1.0);
  EXPECT_NEAR(result.shield_100_servers_500mb, 0.96219171936765746, 1e-9);
}

TEST_F(SweepExperimentsTest, GoldenFig6Grid) {
  const Fig5Result result =
      RunFig5(*workload_, {1.0, 0.5, 0.2}, {.workers = 0});
  ASSERT_EQ(result.points.size(), 3u);
  const struct {
    double bw, load, time, miss;
  } expected[] = {
      {1.0041881918724975, 0.96365539934190847, 0.95258184119938183,
       0.94146243872170432},
      {1.0634609410122278, 0.69383787017648824, 0.64808137762783535,
       0.60213545400809099},
      {1.2877901684453081, 0.5937780436733473, 0.5725091738996323,
       0.55115225138066248},
  };
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(result.points[i].metrics.bandwidth_ratio, expected[i].bw, 1e-9)
        << "tp point " << i;
    EXPECT_NEAR(result.points[i].metrics.server_load_ratio, expected[i].load,
                1e-9);
    EXPECT_NEAR(result.points[i].metrics.service_time_ratio, expected[i].time,
                1e-9);
    EXPECT_NEAR(result.points[i].metrics.miss_rate_ratio, expected[i].miss,
                1e-9);
  }
}

TEST_F(SweepExperimentsTest, GoldenFig3Savings) {
  const Fig3Result result = RunFig3(*workload_, 4);
  ASSERT_EQ(result.saved_top10.size(), 4u);
  const double expected_top10[] = {0.29893609525007925, 0.34528378297879148,
                                   0.3802785016670881, 0.39322634834990777};
  const double expected_top4[] = {0.13130684153056404, 0.14967487296579218,
                                  0.16299925895090783, 0.16836204225009344};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.saved_top10[i], expected_top10[i], 1e-9) << i;
    EXPECT_NEAR(result.saved_top4[i], expected_top4[i], 1e-9) << i;
  }
}

}  // namespace
}  // namespace sds::core
