#include "workloads.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "core/experiments.h"
#include "util/sim_time.h"

namespace perfbench {

using namespace sds;

namespace {

constexpr uint64_t kFnvPrime = 0x100000001b3ull;

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

void AddSpecMetrics(double tp, const spec::SpeculationMetrics& m, Digest* d) {
  d->Add(tp);
  d->Add(m.bandwidth_ratio);
  d->Add(m.server_load_ratio);
  d->Add(m.service_time_ratio);
  d->Add(m.miss_rate_ratio);
  d->Add(m.extra_traffic);
  d->Add(m.unavailable_request_fraction);
  AddRunTotals(m.with_speculation, d);
  AddRunTotals(m.without_speculation, d);
}

/// Evaluated requests of one dissemination replay (Finish's own sum of
/// the outcome buckets).
uint64_t EvalRequests(const dissem::DisseminationResult& r) {
  uint64_t n = r.server_requests + r.shielding_overflow_requests +
               r.unavailable_requests;
  for (const uint64_t p : r.proxy_requests) n += p;
  return n;
}

PassResult RunSpecPaper(const core::Workload& workload,
                        const core::SweepOptions& options) {
  PassResult pass;
  const core::Fig5Result fig5 =
      core::RunFig5(workload, SpecGrid(WorkloadId::kSpecPaper), options);
  Digest digest;
  for (const auto& point : fig5.points) {
    AddSpecMetrics(point.tp, point.metrics, &digest);
  }
  pass.digest = digest.value();
  // Each point replays once; the shared kNone baseline replays once more.
  const uint64_t per_run =
      fig5.points.empty()
          ? 0
          : fig5.points[0].metrics.without_speculation.client_requests;
  pass.requests_replayed = (fig5.points.size() + 1) * per_run;
  pass.sweep = fig5.sweep;
  return pass;
}

PassResult RunSpecChurn(const core::Workload& workload,
                        const core::SweepOptions& options) {
  PassResult pass;
  const std::vector<double> grid = SpecGrid(WorkloadId::kSpecChurn);
  spec::SpeculationSimulator sim(&workload.corpus(), &workload.clean());
  sim.Prewarm(SpecPointConfig(WorkloadId::kSpecChurn, grid[0], nullptr, 0)
                  .dependency);
  const net::FaultSchedule schedule = ChurnFaultSchedule(workload);
  const std::vector<spec::SpeculationMetrics> points = core::SweepMap(
      grid.size(), options,
      [&](size_t index, Rng& rng) {
        return sim.Evaluate(SpecPointConfig(WorkloadId::kSpecChurn,
                                            grid[index], &schedule,
                                            rng.Next()));
      },
      &pass.sweep);
  Digest digest;
  for (size_t i = 0; i < points.size(); ++i) {
    AddSpecMetrics(grid[i], points[i], &digest);
    // Evaluate replays the point and its kNone twin.
    pass.requests_replayed += points[i].with_speculation.client_requests +
                              points[i].without_speculation.client_requests;
  }
  pass.digest = digest.value();
  return pass;
}

PassResult RunDissemStream(const core::Workload& workload,
                           const core::SweepOptions& options) {
  PassResult pass;
  const Fig9Grid grid = DissemGrid();
  const core::Fig9Result fig9 =
      core::RunFig9(workload, grid.storage_fractions, grid.proxies,
                    grid.d_values, options);
  Digest digest;
  uint64_t faulted_eval = 0;
  uint64_t failovers = 0;
  for (size_t row = 0; row < fig9.rows.size(); ++row) {
    for (size_t col = 0; col < fig9.arms.size(); ++col) {
      const dissem::DisseminationResult& sim = fig9.cell(row, col).sim;
      AddDissemResult(sim, &digest);
      if (fig9.arms[col].faulted) {
        faulted_eval += EvalRequests(sim);
        failovers += sim.failover_requests;
      }
    }
  }
  pass.digest = digest.value();
  // Every cell replays the whole clean stream from a fresh cursor.
  pass.requests_replayed = fig9.cells.size() * workload.filter_stats().kept;
  pass.failover_frac =
      faulted_eval == 0 ? 0.0
                        : static_cast<double>(failovers) /
                              static_cast<double>(faulted_eval);
  pass.sweep = fig9.sweep;
  pass.fig9 = fig9;
  return pass;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadId* id) {
  for (const WorkloadId w : {WorkloadId::kSpecPaper, WorkloadId::kSpecChurn,
                             WorkloadId::kDissemStream}) {
    if (name == WorkloadName(w)) {
      *id = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kSpecPaper:
      return "spec_paper";
    case WorkloadId::kSpecChurn:
      return "spec_churn";
    case WorkloadId::kDissemStream:
      return "dissem_stream";
  }
  return "?";
}

bool IsSpecWorkload(WorkloadId id) { return id != WorkloadId::kDissemStream; }

core::WorkloadConfig MakeWorkloadConfig(WorkloadId id, uint64_t seed,
                                        bool smoke) {
  core::WorkloadConfig config = core::PaperScaleConfig();
  config.seed = seed;
  switch (id) {
    case WorkloadId::kSpecPaper:
      if (smoke) {
        config.tracegen.num_clients = 400;
        config.tracegen.days = 12;
      }
      break;
    case WorkloadId::kSpecChurn:
      // Same corpus, ~3x the clients; most pages rewire a link and swap an
      // inline object every day, entry popularity drifts fast, and a large
      // mutable share is updated often.
      config.tracegen.num_clients = smoke ? 1200 : 6000;
      config.tracegen.days = smoke ? 12 : 45;
      config.links.daily_rewire_fraction = 0.35;
      config.links.daily_entry_swaps = 40;
      config.corpus.mutable_fraction = 0.30;
      config.corpus.mutable_update_probability = 0.50;
      break;
    case WorkloadId::kDissemStream:
      config.streaming = true;
      config.tracegen.num_clients = smoke ? 3000 : 50000;
      config.tracegen.days = smoke ? 2 : 3;
      config.tracegen.sessions_per_client_per_day = 1.5;
      break;
  }
  return config;
}

std::vector<double> SpecGrid(WorkloadId id) {
  switch (id) {
    case WorkloadId::kSpecPaper:
      // RunFig5's own grid (Figure 5's x axis).
      return {1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.05};
    case WorkloadId::kSpecChurn:
      // Twice the workers' count of points, so a parallel pass is not
      // bound by whichever single point lands on the slowest core.
      return {0.6, 0.5, 0.4, 0.3, 0.25, 0.15, 0.1, 0.05};
    case WorkloadId::kDissemStream:
      break;
  }
  return {};
}

spec::SpeculationConfig SpecPointConfig(WorkloadId id, double tp,
                                        const net::FaultSchedule* faults,
                                        uint64_t retry_jitter_seed) {
  // RunFig5's per-point config.
  spec::SpeculationConfig config = core::BaselineSpecConfig();
  config.policy.threshold = tp;
  config.closure.min_probability = std::min(0.02, tp);
  if (id != WorkloadId::kSpecChurn) return config;

  config.history_days = 7;
  // Single-session caches with a finite LRU capacity: purges at session
  // end and evictions within a session.
  config.cache.session_timeout = 3600.0;
  config.cache.capacity_bytes = 256 * 1024;
  config.faults = faults;
  config.retry.max_attempts = 4;
  config.retry.jitter = 0.1;
  config.retry_jitter_seed = retry_jitter_seed;
  net::ProtectionConfig& protection = config.protection;
  protection.track_load = true;
  protection.load.service_overhead_s = 10.0;
  protection.load.window_s = 3600.0;
  protection.load.brownout_duration_s = 1800.0;
  protection.circuit_breakers = true;
  protection.retry_budget = true;
  protection.budget.max_retry_ratio = 0.2;
  protection.admission_control = true;
  return config;
}

net::FaultSchedule ChurnFaultSchedule(const core::Workload& workload) {
  net::FaultInjectionConfig config;
  config.horizon_days = workload.clean_span() / kDay + 1.0;
  config.server_failure_rate_per_day = 0.3;
  config.mean_outage_days = 0.1;
  config.min_outage_days = 0.5 / 24.0;
  Rng rng = core::MakePointRng(Rng::Mix(kScenarioSeed ^ 0xc4a1bull), 0);
  return net::GenerateFaultSchedule(workload.topology(), config, &rng);
}

Fig9Grid DissemGrid() {
  // Two rows (4 and 8 proxies); static, d-choice (d = 2) and proximity
  // arms, each fault-free and faulted: 12 cells, 6 of them faulted, so a
  // parallel pass spreads the costly faulted cells over every worker.
  return {{0.10}, {4, 8}, {2}};
}

PassResult RunPass(WorkloadId id, const core::Workload& workload,
                   uint32_t workers) {
  core::SweepOptions options;
  options.workers = workers;
  options.seed = kScenarioSeed;
  const auto start = std::chrono::steady_clock::now();
  PassResult pass;
  switch (id) {
    case WorkloadId::kSpecPaper:
      pass = RunSpecPaper(workload, options);
      break;
    case WorkloadId::kSpecChurn:
      pass = RunSpecChurn(workload, options);
      break;
    case WorkloadId::kDissemStream:
      pass = RunDissemStream(workload, options);
      break;
  }
  pass.wall_s = Seconds(start);
  return pass;
}

void Digest::Add(uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xffu;
    hash_ *= kFnvPrime;
  }
}

void Digest::Add(double value) { Add(std::bit_cast<uint64_t>(value)); }

void Digest::Add(const std::vector<uint64_t>& values) {
  Add(static_cast<uint64_t>(values.size()));
  for (const uint64_t v : values) Add(v);
}

void Digest::Add(const std::vector<double>& values) {
  Add(static_cast<uint64_t>(values.size()));
  for (const double v : values) Add(v);
}

void Digest::Add(const std::vector<uint32_t>& values) {
  Add(static_cast<uint64_t>(values.size()));
  for (const uint32_t v : values) Add(static_cast<uint64_t>(v));
}

void AddRunTotals(const spec::RunTotals& t, Digest* d) {
  d->Add(t.bytes_sent);
  d->Add(t.server_requests);
  d->Add(t.client_requests);
  d->Add(t.total_latency);
  d->Add(t.miss_bytes);
  d->Add(t.requested_bytes);
  d->Add(t.speculative_docs_sent);
  d->Add(t.speculative_bytes);
  d->Add(t.speculative_hits);
  d->Add(t.wasted_speculative_bytes);
  d->Add(t.prefetch_requests);
  d->Add(t.cache_hits);
  d->Add(t.demand_server_responses);
  d->Add(t.demand_bytes_sent);
  d->Add(t.wasted_speculative_docs);
  d->Add(t.unused_resident_speculative_docs);
  d->Add(t.unavailable_requests);
  d->Add(t.retry_attempts);
  d->Add(t.retry_wait_seconds);
  d->Add(t.brownout_responses);
  d->Add(t.suppressed_speculative_docs);
  d->Add(t.emergent_brownouts);
  d->Add(t.breaker_open_transitions);
  d->Add(t.retries_suppressed_by_budget);
  d->Add(t.shed_speculative_docs);
  d->Add(t.breaker_fast_fails);
}

void AddDissemResult(const dissem::DisseminationResult& r, Digest* d) {
  d->Add(r.baseline_bytes_hops);
  d->Add(r.with_proxies_bytes_hops);
  d->Add(r.saved_fraction);
  d->Add(r.proxy_hit_fraction);
  d->Add(r.storage_per_proxy_bytes);
  d->Add(r.total_storage_bytes);
  d->Add(r.proxy_requests);
  d->Add(r.server_requests);
  d->Add(r.shielding_overflow_requests);
  d->Add(r.stale_proxy_requests);
  d->Add(r.stale_fraction);
  d->Add(r.proxy_nodes);
  d->Add(r.unavailable_requests);
  d->Add(r.unavailable_fraction);
  d->Add(r.baseline_unavailable_requests);
  d->Add(r.baseline_unavailable_fraction);
  d->Add(r.failover_requests);
  d->Add(r.degraded_bytes_hops);
  d->Add(r.retry_attempts);
  d->Add(r.retry_wait_seconds);
  d->Add(r.emergent_brownouts);
  d->Add(r.breaker_open_transitions);
  d->Add(r.retries_suppressed_by_budget);
  d->Add(r.shed_replica_requests);
  d->Add(r.fast_failed_requests);
  d->Add(r.served_bytes);
  d->Add(r.mean_service_s);
  d->Add(r.p50_service_s);
  d->Add(r.p99_service_s);
  d->Add(r.load_imbalance_max_mean);
  d->Add(r.load_imbalance_p99_mean);
  d->Add(r.per_level_imbalance);
}

}  // namespace perfbench
