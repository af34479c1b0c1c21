// Differential tests for the streaming spec pipeline: the
// DailyDependencyAccumulator, StreamingSpeculationSimulator and
// QueueSimulator must be bit-identical to their batch counterparts on the
// same request stream — not approximately equal; every RunTotals field,
// every server event and every per-day count run must match exactly,
// because the streaming classes are the batch loop bodies re-fed from
// cursors, not re-implementations.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/workload.h"
#include "spec/dependency.h"
#include "spec/metrics.h"
#include "spec/queueing.h"
#include "spec/simulator.h"
#include "trace/cursor.h"

namespace sds::spec {
namespace {

// One shared small workload (batch mode, so both the materialized trace
// and cursors over the same stream are available side by side).
const core::Workload& SharedWorkload() {
  static const core::Workload* workload =
      new core::Workload(core::MakeWorkload(core::SmallConfig()));
  return *workload;
}

// ---------------------------------------------------------------------------
// Dependency counting
// ---------------------------------------------------------------------------

// Batch emits runs in deterministic first-seen order; the accumulator
// emits them sorted by key. Consumers are order-insensitive, so the
// comparison normalizes the batch side.
std::vector<DayCounts> NormalizedBatchCounts(const DependencyConfig& config) {
  std::vector<DayCounts> batch =
      CountDailyDependencies(SharedWorkload().clean(), config);
  for (DayCounts& day : batch) day.Normalize();
  return batch;
}

void ExpectDaysEq(const std::vector<DayCounts>& batch,
                  const std::vector<DayCounts>& stream) {
  ASSERT_EQ(batch.size(), stream.size());
  for (size_t d = 0; d < batch.size(); ++d) {
    EXPECT_EQ(batch[d].pair_counts, stream[d].pair_counts) << "day " << d;
    EXPECT_EQ(batch[d].occurrences, stream[d].occurrences) << "day " << d;
  }
}

TEST(StreamingDependencyTest, MatchesBatchOnDefaultConfig) {
  const DependencyConfig config;
  const auto cursor = SharedWorkload().NewCleanCursor();
  ExpectDaysEq(NormalizedBatchCounts(config),
               CountDailyDependenciesStream(cursor.get(), config));
}

TEST(StreamingDependencyTest, MatchesBatchOnWideWindow) {
  DependencyConfig config;
  config.window = 60.0;
  config.stride_timeout = 300.0;
  const auto cursor = SharedWorkload().NewCleanCursor();
  ExpectDaysEq(NormalizedBatchCounts(config),
               CountDailyDependenciesStream(cursor.get(), config));
}

TEST(StreamingDependencyTest, MatchesBatchOnTightStride) {
  DependencyConfig config;
  config.window = 30.0;
  config.stride_timeout = 2.0;  // stride breaks dominate
  const auto cursor = SharedWorkload().NewCleanCursor();
  ExpectDaysEq(NormalizedBatchCounts(config),
               CountDailyDependenciesStream(cursor.get(), config));
}

// The pump-ahead pattern the streaming simulator uses: query each day the
// moment DayFinal flips, drop history behind the query point, and still
// read batch-identical counts. This pins both the day-finality rule and
// DropBefore leaving live days untouched.
TEST(StreamingDependencyTest, IncrementalFinalityAndDropBefore) {
  const DependencyConfig config;
  const auto batch = NormalizedBatchCounts(config);

  DailyDependencyAccumulator acc(config,
                                 SharedWorkload().clean().num_clients);
  const auto cursor = SharedWorkload().NewCleanCursor();
  uint32_t next_day = 0;  // first day not yet verified
  const auto drain_final_days = [&] {
    while (next_day < batch.size() && acc.DayFinal(next_day)) {
      const DayCounts* counts = acc.Counts(next_day);
      ASSERT_NE(counts, nullptr);
      EXPECT_EQ(batch[next_day].pair_counts, counts->pair_counts)
          << "day " << next_day;
      EXPECT_EQ(batch[next_day].occurrences, counts->occurrences)
          << "day " << next_day;
      ++next_day;
      if (next_day > 2) acc.DropBefore(next_day - 2);
    }
  };
  for (auto chunk = cursor->NextChunk(); !chunk.empty();
       chunk = cursor->NextChunk()) {
    for (const auto& r : chunk) acc.OnRequest(r);
    drain_final_days();
  }
  acc.FinishStream();
  drain_final_days();
  EXPECT_EQ(next_day, batch.size());
}

TEST(StreamingDependencyTest, EmptyStream) {
  const DependencyConfig config;
  trace::Trace empty;
  empty.num_clients = 0;
  empty.num_servers = 1;
  trace::VectorCursor cursor(&empty);
  const auto days = CountDailyDependenciesStream(&cursor, config);
  ASSERT_EQ(days.size(), 1u);  // matches batch: one empty day
  EXPECT_TRUE(days[0].pair_counts.empty());
  EXPECT_TRUE(days[0].occurrences.empty());
}

// ---------------------------------------------------------------------------
// Speculation replay
// ---------------------------------------------------------------------------

void ExpectTotalsEq(const RunTotals& a, const RunTotals& b) {
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.server_requests, b.server_requests);
  EXPECT_EQ(a.client_requests, b.client_requests);
  EXPECT_EQ(a.total_latency, b.total_latency);
  EXPECT_EQ(a.miss_bytes, b.miss_bytes);
  EXPECT_EQ(a.requested_bytes, b.requested_bytes);
  EXPECT_EQ(a.speculative_docs_sent, b.speculative_docs_sent);
  EXPECT_EQ(a.speculative_bytes, b.speculative_bytes);
  EXPECT_EQ(a.speculative_hits, b.speculative_hits);
  EXPECT_EQ(a.wasted_speculative_bytes, b.wasted_speculative_bytes);
  EXPECT_EQ(a.prefetch_requests, b.prefetch_requests);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.demand_server_responses, b.demand_server_responses);
  EXPECT_EQ(a.demand_bytes_sent, b.demand_bytes_sent);
  EXPECT_EQ(a.wasted_speculative_docs, b.wasted_speculative_docs);
  EXPECT_EQ(a.unused_resident_speculative_docs,
            b.unused_resident_speculative_docs);
  EXPECT_EQ(a.unavailable_requests, b.unavailable_requests);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.retry_wait_seconds, b.retry_wait_seconds);
  EXPECT_EQ(a.brownout_responses, b.brownout_responses);
  EXPECT_EQ(a.suppressed_speculative_docs, b.suppressed_speculative_docs);
  EXPECT_EQ(a.emergent_brownouts, b.emergent_brownouts);
  EXPECT_EQ(a.breaker_open_transitions, b.breaker_open_transitions);
  EXPECT_EQ(a.retries_suppressed_by_budget, b.retries_suppressed_by_budget);
  EXPECT_EQ(a.shed_speculative_docs, b.shed_speculative_docs);
  EXPECT_EQ(a.breaker_fast_fails, b.breaker_fast_fails);
}

// Runs `config` through both paths and requires bit-identical totals and
// server-event streams.
void ExpectRunEquivalence(const SpeculationConfig& config) {
  const core::Workload& w = SharedWorkload();
  SpeculationSimulator batch(&w.corpus(), &w.clean());
  std::vector<ServerEvent> batch_events;
  const RunTotals batch_totals = batch.Run(config, &batch_events);

  const auto replay = w.NewCleanCursor();
  const auto deps = w.NewCleanCursor();
  StreamingSpeculationSimulator stream(&w.corpus(), replay.get(),
                                       deps.get());
  std::vector<ServerEvent> stream_events;
  const RunTotals stream_totals = stream.Run(config, &stream_events);

  ExpectTotalsEq(batch_totals, stream_totals);
  ASSERT_EQ(batch_events.size(), stream_events.size());
  for (size_t i = 0; i < batch_events.size(); ++i) {
    EXPECT_EQ(batch_events[i].time, stream_events[i].time) << "event " << i;
    EXPECT_EQ(batch_events[i].response_bytes,
              stream_events[i].response_bytes)
        << "event " << i;
  }
}

SpeculationConfig SmallHistoryBase() {
  SpeculationConfig config;
  // Short history + multi-day cycle stresses the day roll, the window
  // expiry path and the accumulator's DropBefore floor.
  config.history_days = 3;
  config.update_cycle_days = 2;
  return config;
}

TEST(StreamingSimulatorTest, NoneModeMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kNone;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, NoneModeNeedsNoDepsCursor) {
  // The deps cursor may be null when no model is ever built (fig5 runs the
  // baseline this way before the sweep).
  const core::Workload& w = SharedWorkload();
  SpeculationConfig config;
  config.mode = ServiceMode::kNone;
  SpeculationSimulator batch(&w.corpus(), &w.clean());
  const auto replay = w.NewCleanCursor();
  StreamingSpeculationSimulator stream(&w.corpus(), replay.get(), nullptr);
  ExpectTotalsEq(batch.Run(config), stream.Run(config));
}

TEST(StreamingSimulatorTest, PushModeMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, PushWithoutClosureMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  config.use_closure = false;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, ExponentialDecayMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  config.estimator = SpeculationConfig::EstimatorKind::kExponentialDecay;
  config.decay_per_day = 0.9;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, ClientPrefetchMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kClientPrefetch;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, HybridMatchesBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kHybrid;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, CooperativeClientsMatchBatch) {
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  config.cooperative_clients = true;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, ShortHistoryMultiDayCycleMatchesBatch) {
  SpeculationConfig config = SmallHistoryBase();
  config.mode = ServiceMode::kSpeculativePush;
  ExpectRunEquivalence(config);
}

TEST(StreamingSimulatorTest, EvaluateMatchesBatchEvaluate) {
  const core::Workload& w = SharedWorkload();
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;

  SpeculationSimulator batch(&w.corpus(), &w.clean());
  const SpeculationMetrics bm = batch.Evaluate(config);

  const auto replay = w.NewCleanCursor();
  const auto deps = w.NewCleanCursor();
  StreamingSpeculationSimulator stream(&w.corpus(), replay.get(),
                                       deps.get());
  const SpeculationMetrics sm = stream.Evaluate(config);

  EXPECT_EQ(bm.bandwidth_ratio, sm.bandwidth_ratio);
  EXPECT_EQ(bm.server_load_ratio, sm.server_load_ratio);
  EXPECT_EQ(bm.service_time_ratio, sm.service_time_ratio);
  EXPECT_EQ(bm.miss_rate_ratio, sm.miss_rate_ratio);
  EXPECT_EQ(bm.extra_traffic, sm.extra_traffic);
  ExpectTotalsEq(bm.with_speculation, sm.with_speculation);
  ExpectTotalsEq(bm.without_speculation, sm.without_speculation);
}

// ---------------------------------------------------------------------------
// Queue statistics
// ---------------------------------------------------------------------------

TEST(StreamingQueueTest, PushFinishMatchesComputeQueueStats) {
  const core::Workload& w = SharedWorkload();
  SpeculationSimulator sim(&w.corpus(), &w.clean());
  SpeculationConfig config;
  config.mode = ServiceMode::kSpeculativePush;
  std::vector<ServerEvent> events;
  sim.Run(config, &events);
  ASSERT_FALSE(events.empty());

  QueueConfig qc;
  qc.service_overhead_s = 0.05;
  qc.service_rate_bytes_per_s = 1.5e6;
  const QueueStats batch = ComputeQueueStats(events, qc);

  QueueSimulator queue(qc);
  for (const ServerEvent& e : events) queue.Push(e);
  const QueueStats stream = queue.Finish();

  EXPECT_EQ(batch.requests, stream.requests);
  EXPECT_EQ(batch.utilization, stream.utilization);
  EXPECT_EQ(batch.mean_wait_s, stream.mean_wait_s);
  EXPECT_EQ(batch.mean_response_s, stream.mean_response_s);
  EXPECT_EQ(batch.p95_response_s, stream.p95_response_s);
  EXPECT_EQ(batch.max_queue_depth, stream.max_queue_depth);
}

TEST(StreamingQueueTest, EmptyFinishMatchesBatchEmpty) {
  QueueConfig qc;
  const QueueStats batch = ComputeQueueStats({}, qc);
  QueueSimulator queue(qc);
  const QueueStats stream = queue.Finish();
  EXPECT_EQ(batch.requests, stream.requests);
  EXPECT_EQ(batch.utilization, stream.utilization);
}

}  // namespace
}  // namespace sds::spec
