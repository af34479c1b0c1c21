#include "layers.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>

#include "core/experiments.h"
#include "dissem/simulator.h"
#include "net/placement.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "spec/closure.h"
#include "spec/dependency.h"
#include "spec/queueing.h"
#include "trace/corpus.h"
#include "trace/cursor.h"
#include "trace/filter.h"
#include "trace/generator.h"
#include "trace/link_graph.h"
#include "util/sim_time.h"

namespace perfbench {

using namespace sds;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median seconds per call of `fn`, repeated until at least `min_reps`
/// calls and 50 ms of work (short layers read too coarse from one call).
double TimeMedian(const std::function<void()>& fn, int min_reps = 5) {
  std::vector<double> samples;
  const Clock::time_point begin = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps || Since(begin) < 0.05) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(Since(start));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

bool SameRow(spec::SparseProbMatrix::RowView a,
             spec::SparseProbMatrix::RowView b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].doc != b[k].doc ||
        std::bit_cast<uint32_t>(a[k].probability) !=
            std::bit_cast<uint32_t>(b[k].probability)) {
      return false;
    }
  }
  return true;
}

/// The replay's model maintenance, driven directly: per finished day,
/// WindowedCounts::Add / Remove, then BuildMatrix at every update cycle
/// boundary (SpeculationReplay::RollDay in batch closure mode), and
/// optionally the full closure of every rebuilt P.
struct ModelStats {
  double build_s = 0.0;
  uint64_t rebuilds = 0;
  double rows_changed_frac = 0.0;
  double closure_s = 0.0;
  uint64_t closure_entries = 0;
};

ModelStats MeasureModel(const std::vector<spec::DayCounts>& days,
                        size_t num_docs, const spec::SpeculationConfig& config,
                        bool with_closure) {
  ModelStats stats;
  spec::WindowedCounts counts(num_docs);
  spec::SparseProbMatrix previous;
  bool have_previous = false;
  uint64_t rows_changed = 0;
  uint64_t rows_nonempty = 0;
  for (size_t day = 1; day < days.size(); ++day) {
    const size_t finished = day - 1;
    const Clock::time_point start = Clock::now();
    counts.Add(days[finished]);
    if (finished >= config.history_days) {
      counts.Remove(days[finished - config.history_days]);
    }
    const bool rebuild =
        day % config.update_cycle_days == 0 || !have_previous;
    spec::SparseProbMatrix p;
    if (rebuild) p = counts.BuildMatrix(config.dependency);
    stats.build_s += Since(start);
    if (!rebuild) continue;
    ++stats.rebuilds;
    if (have_previous) {
      for (trace::DocumentId row = 0; row < num_docs; ++row) {
        const auto before = previous.Row(row);
        const auto after = p.Row(row);
        if (before.empty() && after.empty()) continue;
        ++rows_nonempty;
        if (!SameRow(before, after)) ++rows_changed;
      }
    }
    if (with_closure) {
      const Clock::time_point closure_start = Clock::now();
      const spec::SparseProbMatrix closure =
          spec::ComputeClosure(p, config.closure);
      stats.closure_s += Since(closure_start);
      stats.closure_entries += closure.NumEntries();
    }
    previous = std::move(p);
    have_previous = true;
  }
  stats.rows_changed_frac = Ratio(static_cast<double>(rows_changed),
                                  static_cast<double>(rows_nonempty));
  return stats;
}

/// ClientCache driven directly over the prepared replay arrays with
/// demand fetches only: Touch, then a hit or an Insert.
struct CacheStats {
  double ns_per_op = 0.0;
  double hit_ratio = 0.0;
  double evict_purge_frac = 0.0;
};

CacheStats DriveCache(const spec::PreparedSpecTrace& prepared,
                      uint32_t num_clients,
                      const spec::ClientCacheConfig& config) {
  std::vector<spec::ClientCache> caches(num_clients, spec::ClientCache(config));
  uint64_t hits = 0;
  uint64_t inserted = 0;
  uint64_t dropped = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < prepared.size(); ++i) {
    spec::ClientCache& cache = caches[prepared.client[i]];
    const size_t before_touch = cache.num_docs();
    cache.Touch(prepared.time[i]);
    dropped += before_touch - cache.num_docs();
    if (cache.Contains(prepared.doc[i])) {
      ++hits;
      continue;
    }
    const size_t before = cache.num_docs();
    cache.Insert(prepared.doc[i], prepared.size_bytes[i], false,
                 prepared.time[i]);
    // Documents larger than the capacity are never cached.
    if (!cache.Contains(prepared.doc[i])) continue;
    ++inserted;
    dropped += before + 1 - cache.num_docs();
  }
  const double seconds = Since(start);
  CacheStats stats;
  const double ops = static_cast<double>(prepared.size());
  stats.ns_per_op = Ratio(seconds * 1e9, ops);
  stats.hit_ratio = Ratio(static_cast<double>(hits), ops);
  stats.evict_purge_frac =
      Ratio(static_cast<double>(dropped), static_cast<double>(inserted));
  return stats;
}

double MiddleTp(WorkloadId id) {
  const std::vector<double> grid = SpecGrid(id);
  return grid[grid.size() / 2];
}

/// RunFig9's shared fault overlay: zone-correlated outages plus a 6-hour
/// server brownout every third evaluation day.
net::FaultSchedule Fig9FaultSchedule(
    const core::Workload& workload, const dissem::PreparedDissemination& prep) {
  const double horizon_days = workload.clean_span() / kDay + 1.0;
  net::FaultInjectionConfig config;
  config.horizon_days = horizon_days;
  config.node_failure_rate_per_day = 0.05;
  config.link_failure_rate_per_day = 0.025;
  config.server_failure_rate_per_day = 0.05;
  config.mean_outage_days = 1.0;
  config.min_outage_days = 2.0 / 24.0;
  config.zone_failure_probability = 0.3;
  Rng rng = core::MakePointRng(Rng::Mix(kScenarioSeed ^ 0xf199baau), 0);
  net::FaultSchedule schedule =
      net::GenerateFaultSchedule(workload.topology(), config, &rng);
  const long first_eval_day = static_cast<long>(prep.split / kDay) + 1;
  for (long day = first_eval_day; day < static_cast<long>(horizon_days);
       day += 3) {
    const double start = static_cast<double>(day) * kDay + 12.0 * 3600.0;
    schedule.Add({net::FaultKind::kServerBrownout, 0, start,
                  start + 6.0 * 3600.0});
  }
  return schedule;
}

void TraceLayer(const core::WorkloadConfig& config,
                const core::Workload& workload, Checks* checks,
                std::vector<Metric>* out) {
  double generate_s = 0.0;
  double filter_s = 0.0;
  trace::FilterStats stats;
  if (!workload.streaming()) {
    // MakeWorkload's generation steps on the same RNG forks.
    Rng rng(config.seed);
    Rng corpus_rng = rng.Fork();
    Rng graph_rng = rng.Fork();
    Rng trace_rng = rng.Fork();
    const trace::Corpus corpus = trace::GenerateCorpus(config.corpus,
                                                       &corpus_rng);
    trace::LinkGraph graph(&corpus, config.links, &graph_rng);
    Clock::time_point start = Clock::now();
    const trace::GeneratedTrace generated =
        trace::GenerateTrace(config.tracegen, &graph, &trace_rng);
    generate_s = Since(start);
    start = Clock::now();
    const trace::Trace clean = trace::FilterTrace(generated.trace, &stats);
    filter_s = Since(start);
  } else {
    // Generation is a bare drain of the raw generator cursor; filtering is
    // a drain of the FilteringCursor that every NewCleanCursor() wraps,
    // here around a materialised copy of the same raw stream.
    const auto raw = workload.NewRawCursor();
    Clock::time_point start = Clock::now();
    while (!raw->NextChunk().empty()) {
    }
    generate_s = Since(start);
    raw->Rewind();
    trace::FilteringCursor filtering(
        std::make_unique<trace::VectorCursor>(trace::Materialize(raw.get())));
    start = Clock::now();
    for (auto chunk = filtering.NextChunk(); !chunk.empty();
         chunk = filtering.NextChunk()) {
      stats.kept += chunk.size();
    }
    filter_s = Since(start);
  }
  checks->Expect(stats.kept == workload.filter_stats().kept,
                 "trace: regenerated clean request count matches the workload");

  const auto cursor = workload.NewCleanCursor();
  const Clock::time_point start = Clock::now();
  uint64_t drained = 0;
  for (auto chunk = cursor->NextChunk(); !chunk.empty();
       chunk = cursor->NextChunk()) {
    drained += chunk.size();
  }
  const double drain_s = Since(start);
  checks->Expect(drained == workload.filter_stats().kept,
                 "trace: clean cursor yields every clean request");

  out->push_back({"trace.generate_s", generate_s, "s"});
  out->push_back({"trace.filter_s", filter_s, "s"});
  out->push_back({"trace.cursor_ns_per_req",
                  Ratio(drain_s * 1e9, static_cast<double>(drained)), "ns"});
  out->push_back({"trace.requests",
                  static_cast<double>(workload.filter_stats().kept), "count"});
}

/// The spec.* figures; all zero on a workload that runs no spec code.
struct SpecFigures {
  double prepare_s = 0.0;
  double deps_s = 0.0;
  uint64_t deps_pairs = 0;
  ModelStats model;
  double base_ns_per_req = 0.0;
  double spec_ns_per_req = 0.0;
  CacheStats cache;
  double useful_ratio = 0.0;
  double queue_s = 0.0;
};

void EmitSpec(const SpecFigures& f, std::vector<Metric>* out) {
  out->push_back({"spec.prepare_s", f.prepare_s, "s"});
  out->push_back({"spec.deps_s", f.deps_s, "s"});
  out->push_back(
      {"spec.deps.pairs", static_cast<double>(f.deps_pairs), "count"});
  out->push_back({"spec.model.build_s", f.model.build_s, "s"});
  out->push_back({"spec.model.rebuilds",
                  static_cast<double>(f.model.rebuilds), "count"});
  out->push_back(
      {"spec.model.rows_changed_frac", f.model.rows_changed_frac, "frac"});
  out->push_back({"spec.closure_s", f.model.closure_s, "s"});
  out->push_back({"spec.closure.entries",
                  static_cast<double>(f.model.closure_entries), "count"});
  out->push_back({"spec.replay.base_ns_per_req", f.base_ns_per_req, "ns"});
  out->push_back({"spec.replay.spec_ns_per_req", f.spec_ns_per_req, "ns"});
  out->push_back({"spec.cache.ns_per_op", f.cache.ns_per_op, "ns"});
  out->push_back({"spec.cache.hit_ratio", f.cache.hit_ratio, "frac"});
  out->push_back(
      {"spec.cache.evict_purge_frac", f.cache.evict_purge_frac, "frac"});
  out->push_back({"spec.push.useful_ratio", f.useful_ratio, "frac"});
  out->push_back({"spec.queue_s", f.queue_s, "s"});
}

/// Measures the spec layer and (spec_churn) net.faults.schedule_s.
SpecFigures SpecLayer(WorkloadId id, const core::Workload& workload,
                      Checks* checks, double* fault_schedule_s) {
  SpecFigures f;
  const double tp = MiddleTp(id);
  net::FaultSchedule schedule;
  if (id == WorkloadId::kSpecChurn) {
    *fault_schedule_s =
        TimeMedian([&] { schedule = ChurnFaultSchedule(workload); });
  }
  const spec::SpeculationConfig config = SpecPointConfig(
      id, tp, id == WorkloadId::kSpecChurn ? &schedule : nullptr,
      kScenarioSeed);
  spec::SpeculationConfig plain = config;
  plain.mode = spec::ServiceMode::kNone;

  Clock::time_point start = Clock::now();
  spec::SpeculationSimulator sim(&workload.corpus(), &workload.clean());
  f.prepare_s = Since(start);

  start = Clock::now();
  const std::vector<spec::DayCounts> days =
      spec::CountDailyDependencies(workload.clean(), config.dependency);
  f.deps_s = Since(start);
  for (const auto& day : days) {
    for (const auto& [key, n] : day.pair_counts) f.deps_pairs += n;
  }

  f.model = MeasureModel(days, workload.corpus().size(), config, true);

  // Replays, with the dependency table prebuilt so that only the loop,
  // the cache, the model rebuilds and the closure rows are timed.
  sim.Prewarm(config.dependency);
  start = Clock::now();
  const spec::RunTotals base = sim.Run(plain);
  const double base_s = Since(start);
  start = Clock::now();
  const spec::RunTotals with = sim.Run(config);
  const double spec_s = Since(start);
  checks->Expect(base.client_requests == sim.prepared().size() &&
                     with.client_requests == sim.prepared().size(),
                 "spec: every prepared request is replayed");

  std::vector<spec::ServerEvent> events;
  const spec::RunTotals again = sim.Run(config, &events);
  Digest first;
  Digest second;
  AddRunTotals(with, &first);
  AddRunTotals(again, &second);
  checks->Expect(first.value() == second.value(),
                 "spec: repeated Run is bit-identical");
  spec::QueueStats queue;
  f.queue_s = TimeMedian(
      [&] { queue = spec::ComputeQueueStats(events, spec::QueueConfig{}); },
      3);
  checks->Expect(queue.requests == events.size(),
                 "spec: queue model serves every server event");

  f.cache = DriveCache(sim.prepared(), workload.num_clients(), config.cache);

  const double requests = static_cast<double>(sim.prepared().size());
  f.base_ns_per_req = Ratio(base_s * 1e9, requests);
  f.spec_ns_per_req = Ratio(spec_s * 1e9, requests);
  f.useful_ratio = Ratio(static_cast<double>(with.speculative_hits),
                         static_cast<double>(with.speculative_docs_sent));
  return f;
}

/// The dissem.* figures; all zero on a workload that runs no dissemination.
struct DissemFigures {
  double prepare_s = 0.0;
  double route_plans_s = 0.0;
  double replay_ns_per_req = 0.0;
  double replay_faulted_ns_per_req = 0.0;
};

void EmitDissem(const DissemFigures& f, std::vector<Metric>* out) {
  out->push_back({"dissem.prepare_s", f.prepare_s, "s"});
  out->push_back({"dissem.route_plans_s", f.route_plans_s, "s"});
  out->push_back({"dissem.replay_ns_per_req", f.replay_ns_per_req, "ns"});
  out->push_back({"dissem.replay_faulted_ns_per_req",
                  f.replay_faulted_ns_per_req, "ns"});
}

/// Measures the dissem layer, net.placement_s and (dissem_stream)
/// net.faults.schedule_s. `fig9` is the untraced pass's grid; the direct
/// replays must reproduce its static cells (fault-free and faulted).
DissemFigures DissemLayer(const core::Workload& workload,
                          const core::Fig9Result& fig9, Checks* checks,
                          double* fault_schedule_s, double* placement_s) {
  DissemFigures f;
  const Fig9Grid grid = DissemGrid();
  const double train_fraction = dissem::DisseminationConfig{}.train_fraction;
  dissem::PreparedDissemination prepared;
  Clock::time_point start = Clock::now();
  {
    const auto cursor = workload.NewCleanCursor();
    prepared = dissem::PrepareDisseminationStream(
        workload.corpus(), workload.topology(), 0, train_fraction,
        workload.clean_span(), cursor.get());
  }
  f.prepare_s = Since(start);

  net::PlacementResult placement;
  *placement_s = TimeMedian([&] {
    placement = net::GreedyPlacement(prepared.tree, grid.proxies[0], 1.0);
  });
  std::vector<dissem::RoutePlan> plans;
  f.route_plans_s = TimeMedian(
      [&] { plans = dissem::BuildRoutePlans(prepared, placement.proxies); });
  checks->Expect(plans.size() == prepared.nodes.size(),
                 "dissem: one route plan per clientele node");

  net::FaultSchedule schedule;
  *fault_schedule_s = TimeMedian(
      [&] { schedule = Fig9FaultSchedule(workload, prepared); });

  // The evaluation stream, materialised once so replays exclude
  // generation (the filter SimulateDisseminationStream applies).
  std::vector<dissem::DisseminationReplay::EvalRecord> records;
  {
    const auto cursor = workload.NewCleanCursor();
    for (auto chunk = cursor->NextChunk(); !chunk.empty();
         chunk = cursor->NextChunk()) {
      for (const trace::Request& r : chunk) {
        if (r.time < prepared.split || r.server != prepared.server ||
            !r.remote_client || r.kind == trace::RequestKind::kNotFound ||
            r.kind == trace::RequestKind::kScript) {
          continue;
        }
        const uint32_t node = prepared.node_index.at(
            workload.topology().client_node(r.client));
        records.push_back({r.time, r.client, r.doc, r.bytes, node,
                           static_cast<uint32_t>(DayOfTime(r.time))});
      }
    }
  }
  checks->Expect(records.size() == prepared.eval_requests,
                 "dissem: materialised stream matches the prepared eval count");

  dissem::DisseminationConfig config;
  config.dissemination_fraction = grid.storage_fractions[0];
  config.num_proxies = grid.proxies[0];
  dissem::DisseminationConfig faulted = config;
  faulted.faults = &schedule;
  faulted.retry.max_attempts = 6;
  faulted.retry.timeout_s = 5.0;
  faulted.retry.base_backoff_s = 1.0;
  faulted.retry.backoff_multiplier = 2.0;
  faulted.retry.max_backoff_s = 60.0;
  faulted.retry.jitter = 0.0;

  const auto replay = [&](const dissem::DisseminationConfig& c,
                          double* seconds) {
    Rng rng = core::MakePointRng(kScenarioSeed, 0);
    const Clock::time_point replay_start = Clock::now();
    dissem::DisseminationReplay sim(prepared, c, &rng, &workload.updates());
    for (size_t k = 0; k < records.size(); ++k) sim.OnRequest(k, records[k]);
    dissem::DisseminationResult result = sim.Finish();
    *seconds = Since(replay_start);
    return result;
  };
  double clean_s = 0.0;
  double faulted_s = 0.0;
  const dissem::DisseminationResult clean_result = replay(config, &clean_s);
  const dissem::DisseminationResult faulted_result =
      replay(faulted, &faulted_s);

  // The static arm draws no randomness, so the direct replays must equal
  // the sweep's static cells bit-for-bit.
  size_t static_clean = fig9.arms.size();
  size_t static_faulted = fig9.arms.size();
  for (size_t col = 0; col < fig9.arms.size(); ++col) {
    if (fig9.arms[col].policy != core::Fig9Policy::kStatic) continue;
    (fig9.arms[col].faulted ? static_faulted : static_clean) = col;
  }
  const auto same = [&fig9](const dissem::DisseminationResult& direct,
                            size_t col) {
    if (col >= fig9.arms.size()) return false;
    Digest a;
    Digest b;
    AddDissemResult(direct, &a);
    AddDissemResult(fig9.cell(0, col).sim, &b);
    return a.value() == b.value();
  };
  checks->Expect(same(clean_result, static_clean),
                 "dissem: direct fault-free replay equals its fig9 cell");
  checks->Expect(same(faulted_result, static_faulted),
                 "dissem: direct faulted replay equals its fig9 cell");

  const double n = static_cast<double>(records.size());
  f.replay_ns_per_req = Ratio(clean_s * 1e9, n);
  f.replay_faulted_ns_per_req = Ratio(faulted_s * 1e9, n);
  return f;
}

}  // namespace

void Checks::Expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

WorkloadProperties MeasureProperties(WorkloadId id,
                                     const core::Workload& workload) {
  WorkloadProperties props;
  if (!IsSpecWorkload(id)) return props;
  const spec::SpeculationConfig config =
      SpecPointConfig(id, MiddleTp(id), nullptr, 0);
  const std::vector<spec::DayCounts> days =
      spec::CountDailyDependencies(workload.clean(), config.dependency);
  props.rows_changed_frac =
      MeasureModel(days, workload.corpus().size(), config, false)
          .rows_changed_frac;
  const spec::SpeculationSimulator sim(&workload.corpus(), &workload.clean());
  props.evict_purge_frac =
      DriveCache(sim.prepared(), workload.num_clients(), config.cache)
          .evict_purge_frac;
  return props;
}

std::vector<Metric> RunTraced(WorkloadId id, const core::WorkloadConfig& config,
                              const core::Workload& workload,
                              uint32_t par_workers, uint64_t reference,
                              Checks* checks) {
  std::vector<Metric> out;

  // --- core + obs: the same pass untraced, then with the metrics layer
  // and the audit ledger armed. ---
  obs::SetEnabled(false);
  obs::SetAuditEnabled(false);
  const PassResult untraced = RunPass(id, workload, par_workers);
  obs::ResetMetrics();
  obs::ResetAudit();
  obs::SetEnabled(true);
  obs::SetAuditEnabled(true);
  const PassResult traced = RunPass(id, workload, par_workers);
  obs::AuditCheckpoint("perfbench.traced_pass");
  const size_t violations = obs::AuditReport().size();
  obs::SetEnabled(false);
  obs::SetAuditEnabled(false);
  checks->Expect(violations == 0, "obs: audit ledger holds on the traced pass");
  checks->Expect(traced.digest == untraced.digest,
                 "obs: tracing leaves the results bit-identical");
  if (reference != 0) {
    checks->Expect(untraced.digest == reference,
                   "digest matches the stored reference");
  }

  // --- Per-layer timings, tracing off. ---
  TraceLayer(config, workload, checks, &out);
  double fault_schedule_s = 0.0;
  double placement_s = 0.0;
  SpecFigures spec_figures;
  DissemFigures dissem_figures;
  if (IsSpecWorkload(id)) {
    spec_figures = SpecLayer(id, workload, checks, &fault_schedule_s);
  } else {
    dissem_figures = DissemLayer(workload, *untraced.fig9, checks,
                                 &fault_schedule_s, &placement_s);
  }
  EmitSpec(spec_figures, &out);
  out.push_back({"net.placement_s", placement_s, "s"});
  out.push_back({"net.faults.schedule_s", fault_schedule_s, "s"});
  EmitDissem(dissem_figures, &out);
  out.push_back({"dissem.failover_frac", untraced.failover_frac, "frac"});

  const core::SweepStats& sweep = untraced.sweep;
  std::vector<double> points = sweep.point_seconds;
  double max_over_median = 0.0;
  if (!points.empty()) {
    std::sort(points.begin(), points.end());
    max_over_median = Ratio(points.back(), points[points.size() / 2]);
  }
  out.push_back({"core.sweep.efficiency",
                 Ratio(sweep.serial_seconds,
                       sweep.wall_seconds * static_cast<double>(sweep.workers)),
                 "frac"});
  out.push_back({"core.sweep.point_max_over_median", max_over_median, "x"});
  out.push_back({"obs.trace_overhead_frac",
                 Ratio(traced.wall_s, untraced.wall_s) - 1.0, "frac"});
  out.push_back(
      {"obs.audit_violations", static_cast<double>(violations), "count"});
  return out;
}

}  // namespace perfbench
