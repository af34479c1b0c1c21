#include "spec/simulator.h"

#include <algorithm>
#include <memory>

#include "obs/audit.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/logging.h"

namespace sds::spec {

namespace {

/// Registers the speculation flow edges once per process. Each side is
/// accumulated at a different branch of OnRequest/Finish, so these are
/// real cross-checks, not derived formulas (see obs/audit.h).
void RegisterSpecAuditInvariants() {
  static const bool once = [] {
    using obs::AuditKind;
    // Every replayed request is exactly one of: answered from the client
    // cache, answered by the server on the demand path, or lost to an
    // outage/breaker.
    obs::RegisterAuditInvariant(
        "spec.request_conservation", AuditKind::kEqual,
        {{"spec.client_requests"}},
        {{"spec.cache_hits"},
         {"spec.demand_server_responses"},
         {"spec.unavailable_requests"}});
    // Every byte the server sent is demand payload or speculative push.
    obs::RegisterAuditInvariant(
        "spec.byte_conservation", AuditKind::kEqual,
        {{"spec.bytes_sent"}},
        {{"spec.demand_bytes_sent"}, {"spec.speculative_bytes"}});
    // Every pushed document ends up in exactly one bucket: requested for
    // real, wasted (duplicate/dropped/purged/evicted unused), or still
    // resident unused when the run ended.
    obs::RegisterAuditInvariant(
        "spec.doc_conservation", AuditKind::kEqual,
        {{"spec.speculative_docs_sent"}},
        {{"spec.speculative_hits"},
         {"spec.wasted_speculative_docs"},
         {"spec.unused_resident_speculative_docs"}});
    obs::RegisterAuditInvariant(
        "spec.hits_bounded", AuditKind::kLessOrEqual,
        {{"spec.speculative_hits"}}, {{"spec.speculative_docs_sent"}});
    // Server traffic splits into demand responses and prefetch fetches
    // (server-hint and client-prefetch modes).
    obs::RegisterAuditInvariant(
        "spec.server_requests_split", AuditKind::kEqual,
        {{"spec.server_requests"}},
        {{"spec.demand_server_responses"}, {"spec.prefetch_requests"}});
    return true;
  }();
  (void)once;
}

}  // namespace

namespace internal {

void UserProfile::Observe(trace::DocumentId doc, SimTime now,
                          const DependencyConfig& config) {
  while (!recent.empty() && now - recent.front().first > config.window) {
    recent.pop_front();
  }
  // Stride break: if the gap to the most recent request exceeds the
  // stride timeout, the chain is broken and history is irrelevant.
  if (!recent.empty() &&
      now - recent.back().first >= config.stride_timeout) {
    recent.clear();
  }
  for (const auto& [t, prev] : recent) {
    if (prev == doc) continue;
    ++pair_counts[PairKey(prev, doc)];
  }
  ++occurrences[doc];
  recent.emplace_back(now, doc);
}

double UserProfile::Probability(trace::DocumentId i, trace::DocumentId j,
                                uint32_t min_support) const {
  const auto pit = pair_counts.find(PairKey(i, j));
  if (pit == pair_counts.end() || pit->second < min_support) return 0.0;
  const auto oit = occurrences.find(i);
  if (oit == occurrences.end() || oit->second == 0) return 0.0;
  return std::min(1.0, static_cast<double>(pit->second) /
                           static_cast<double>(oit->second));
}

std::vector<CandidateDoc> UserProfile::Successors(trace::DocumentId doc,
                                                  double threshold,
                                                  uint32_t min_support) const {
  std::vector<CandidateDoc> out;
  // Scan this user's pairs with leading doc. User maps are small, so a
  // linear pass is fine.
  for (const auto& [key, n] : pair_counts) {
    if (static_cast<trace::DocumentId>(key >> 32) != doc) continue;
    if (n < min_support) continue;
    const auto oit = occurrences.find(doc);
    if (oit == occurrences.end() || oit->second == 0) continue;
    const double p =
        static_cast<double>(n) / static_cast<double>(oit->second);
    if (p >= threshold) {
      out.push_back({static_cast<trace::DocumentId>(key & 0xffffffffu),
                     std::min(1.0, p)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CandidateDoc& a, const CandidateDoc& b) {
              if (a.probability != b.probability)
                return a.probability > b.probability;
              return a.doc < b.doc;
            });
  return out;
}

}  // namespace internal

const char* ServiceModeToString(ServiceMode mode) {
  switch (mode) {
    case ServiceMode::kNone:
      return "none";
    case ServiceMode::kSpeculativePush:
      return "speculative-push";
    case ServiceMode::kClientPrefetch:
      return "client-prefetch";
    case ServiceMode::kHybrid:
      return "hybrid";
    case ServiceMode::kServerHints:
      return "server-hints";
  }
  return "?";
}

SpeculationReplay::SpeculationReplay(const trace::Corpus* corpus,
                                     uint32_t num_clients,
                                     uint32_t num_servers,
                                     const SpeculationConfig& config,
                                     DayCountsSource deltas,
                                     std::vector<ServerEvent>* server_events)
    : run_span_("spec.run"),
      journey_("spec"),
      corpus_(corpus),
      config_(&config),
      deltas_(std::move(deltas)),
      server_events_(server_events),
      counts_(corpus->size()),
      decayed_(corpus->size(), config.decay_per_day),
      closure_(&model_, config.closure),
      retry_rng_(config.retry_jitter_seed),
      tracker_(config.protection.track_load ? num_servers : 0,
               config.protection.load),
      retry_budget_(config.protection.budget) {
  if (server_events_ != nullptr) server_events_->clear();
  RegisterSpecAuditInvariants();
  SDS_CHECK(config.update_cycle_days >= 1);
  SDS_CHECK(config.history_days >= 1);

  server_speculates_ = config.mode == ServiceMode::kSpeculativePush ||
                       config.mode == ServiceMode::kHybrid;
  server_hints_ = config.mode == ServiceMode::kServerHints;
  client_prefetches_ = config.mode == ServiceMode::kClientPrefetch ||
                       config.mode == ServiceMode::kHybrid;
  needs_model_ = server_speculates_ || server_hints_;
  if (needs_model_) {
    SDS_CHECK(deltas_ != nullptr) << "speculative modes need day counts";
  }

  use_decay_ =
      config.estimator == SpeculationConfig::EstimatorKind::kExponentialDecay;

  caches_.reserve(num_clients);
  for (uint32_t c = 0; c < num_clients; ++c) {
    caches_.emplace_back(config.cache);
  }
  if (client_prefetches_) profiles_.resize(num_clients);

  push_policy_ = config.policy;
  if (config.mode == ServiceMode::kHybrid) {
    push_policy_.threshold =
        std::max(push_policy_.threshold, config.hybrid_push_threshold);
  }

  faulty_ = config.faults != nullptr && !config.faults->empty();

  // Per-run protection state (never shared across sweep points). Entities
  // are servers; demand service stays up during emergent overload (the
  // kServerBrownout semantics) but speculative work is shed, misses fail
  // fast on open breakers, and storm retries are capped by the budget.
  const net::ProtectionConfig& protection = config.protection;
  track_load_ = protection.track_load;
  breakers_armed_ = protection.circuit_breakers;
  budget_armed_ = protection.retry_budget;
  admission_armed_ = protection.admission_control && track_load_;
  if (breakers_armed_) {
    breakers_.assign(num_servers, net::CircuitBreaker(protection.breaker));
  }
}

void SpeculationReplay::RollDay(uint32_t day) {
  const SpeculationConfig& config = *config_;
  // Day roll: fold finished days into the sliding window and re-estimate
  // the relations at UpdateCycle boundaries.
  while (static_cast<long>(day) > current_day_) {
    const long finished = current_day_;
    ++current_day_;
    if (needs_model_) {
      if (use_decay_) {
        if (const DayCounts* d = deltas_(finished)) {
          decayed_.AdvanceDay(*d);
        }
      } else {
        if (const DayCounts* d = deltas_(finished)) {
          counts_.Add(*d);
        }
        const long expired =
            finished - static_cast<long>(config.history_days);
        if (expired >= 0) {
          if (const DayCounts* d = deltas_(expired)) {
            counts_.Remove(*d);
          }
        }
      }
      if (current_day_ % config.update_cycle_days == 0 ||
          !model_ready_) {
        model_ = use_decay_ ? decayed_.BuildMatrix(config.dependency)
                            : counts_.BuildMatrix(config.dependency);
        closure_.Reset(&model_);
        ++full_rebuilds_;
        model_ready_ = true;
      }
    }
  }
}

void SpeculationReplay::OnRequest(size_t i, const Record& rec) {
  const SpeculationConfig& config = *config_;
  const SimTime now = rec.time;
  const trace::ClientId client = rec.client;
  const trace::DocumentId doc = rec.doc;
  const trace::ServerId server = rec.server;
  RollDay(rec.day);

  ClientCache& cache = caches_[client];
  cache.Touch(now);
  const uint64_t size = rec.size_bytes;
  ++totals_.client_requests;
  obs::TsCount("spec.client_requests", now);
  totals_.requested_bytes += static_cast<double>(size);
  const bool sampled = journey_.Sample(i);

  if (cache.Contains(doc)) {
    ++totals_.cache_hits;
    if (cache.IsUnusedSpeculative(doc)) {
      ++totals_.speculative_hits;
      obs::TsCount("spec.speculative_hits", now);
      obs::FlightRecord(i, "spec.request", "speculative_hit", doc);
    } else {
      obs::FlightRecord(i, "spec.request", "cache_hit", doc);
    }
    cache.MarkUsed(doc);
    if (sampled) {
      obs::JourneyRecord j;
      j.request = i;
      j.time_s = now;
      j.client = client;
      j.doc = doc;
      j.served_by = obs::kServedByCache;
      journey_.Record(j);
    }
    return;  // zero-latency cache hit, no server involvement
  }

  // Cache miss: the request tries to reach the server. During a server
  // outage the client retries with backoff; if every attempt finds the
  // server down, the request is lost (counted unavailable, never served).
  uint32_t request_retries = 0;
  double request_backoff = 0.0;
  if (budget_armed_) retry_budget_.RecordRequest(now);
  if (breakers_armed_ && !breakers_[server].AllowRequest(now)) {
    // Open breaker: the miss fails fast without burning a timeout, and
    // the struggling server sees no traffic at all from it.
    ++totals_.breaker_fast_fails;
    ++totals_.unavailable_requests;
    obs::TsCount("spec.unavailable_requests", now);
    obs::FlightRecord(i, "spec.request", "breaker_fast_fail", doc);
    totals_.miss_bytes += static_cast<double>(size);
    if (sampled) {
      obs::JourneyRecord j;
      j.request = i;
      j.time_s = now;
      j.client = client;
      j.doc = doc;
      j.served_by = obs::kServedByNone;
      journey_.Record(j);
    }
    return;
  }
  if (faulty_ && config.faults->ServerDown(server, now)) {
    SimTime when = now;
    double waited = 0.0;
    bool reached = false;
    ++totals_.retry_attempts;  // the initial attempt timed out
    obs::TsCount("spec.retry_attempts", now);
    ++request_retries;
    if (breakers_armed_) breakers_[server].RecordFailure(now);
    for (uint32_t attempt = 1; attempt < config.retry.max_attempts;
         ++attempt) {
      if (budget_armed_ && !retry_budget_.TryRetry(when)) {
        ++totals_.retries_suppressed_by_budget;
        obs::TsCount("spec.retries_suppressed_by_budget", when);
        break;
      }
      const double wait =
          config.retry.timeout_s +
          config.retry.BackoffBeforeRetry(attempt - 1, &retry_rng_);
      waited += wait;
      when += wait;
      if (!config.faults->ServerDown(server, when)) {
        reached = true;
        break;
      }
      ++totals_.retry_attempts;
      obs::TsCount("spec.retry_attempts", when);
      ++request_retries;
      if (breakers_armed_) breakers_[server].RecordFailure(when);
    }
    if (!reached) waited += config.retry.timeout_s;
    totals_.retry_wait_seconds += waited;
    request_backoff = waited;
    if (!reached) {
      ++totals_.unavailable_requests;
      obs::TsCount("spec.unavailable_requests", now);
      obs::FlightRecord(i, "spec.request", "unavailable", doc,
                        request_backoff);
      totals_.miss_bytes += static_cast<double>(size);
      if (sampled) {
        obs::JourneyRecord j;
        j.request = i;
        j.time_s = now;
        j.client = client;
        j.doc = doc;
        j.served_by = obs::kServedByNone;
        j.retries = request_retries;
        j.backoff_s = request_backoff;
        journey_.Record(j);
      }
      return;
    }
  }
  if (breakers_armed_) breakers_[server].RecordSuccess();
  // Brownout (overload, §2.3's shielding pressure): demand service stays
  // up but every speculative transfer is shed until the load drains.
  const bool scheduled_degraded =
      faulty_ && config.faults->ServerDegraded(server, now);
  // Emergent counterpart: the live utilization window crossed the
  // brownout threshold, or admission control is shedding early under
  // pressure (speculative pushes are the first work dropped).
  const bool load_shed =
      (track_load_ && tracker_.Overloaded(server, now)) ||
      (admission_armed_ && tracker_.UnderPressure(server, now));
  const bool degraded = scheduled_degraded || load_shed;

  ++totals_.server_requests;
  ++totals_.demand_server_responses;
  obs::TsCount("spec.server_requests", now);
  obs::FlightRecord(i, "spec.request", degraded ? "served_degraded" : "served",
                    doc, static_cast<double>(size));
  totals_.miss_bytes += static_cast<double>(size);
  double response_bytes = static_cast<double>(size);
  uint32_t pushed_docs = 0;

  if (degraded && model_ready_ &&
      (server_speculates_ || server_hints_)) {
    ++totals_.brownout_responses;
    const SparseProbMatrix::RowView row =
        config.use_closure ? closure_.Row(doc) : model_.Row(doc);
    const size_t suppressed =
        SelectCandidates(row, *corpus_,
                         server_speculates_ ? push_policy_ : config.policy)
            .size();
    if (scheduled_degraded) {
      totals_.suppressed_speculative_docs += suppressed;
      obs::TsCount("spec.suppressed_speculative_docs", now,
                   static_cast<double>(suppressed));
    } else {
      totals_.shed_speculative_docs += suppressed;
      obs::TsCount("spec.shed_speculative_docs", now,
                   static_cast<double>(suppressed));
    }
  }

  if (server_speculates_ && model_ready_ && !degraded) {
    const SparseProbMatrix::RowView row =
        config.use_closure ? closure_.Row(doc) : model_.Row(doc);
    for (const auto& cand :
         SelectCandidates(row, *corpus_, push_policy_)) {
      const uint64_t cand_size = corpus_->doc(cand.doc).size_bytes;
      const bool cached = cache.Contains(cand.doc);
      if (cached && config.cooperative_clients) {
        continue;  // digest tells the server not to send it
      }
      response_bytes += static_cast<double>(cand_size);
      totals_.speculative_bytes += static_cast<double>(cand_size);
      ++totals_.speculative_docs_sent;
      obs::TsCount("spec.speculative_docs_sent", now);
      obs::TsCount("spec.speculative_bytes", now,
                   static_cast<double>(cand_size));
      ++pushed_docs;
      if (cached) {
        // Blind duplicate push: pure waste.
        totals_.wasted_speculative_bytes +=
            static_cast<double>(cand_size);
        ++totals_.wasted_speculative_docs;
        obs::FlightRecord(i, "spec.push", "duplicate_waste", cand.doc,
                          static_cast<double>(cand_size));
      } else {
        cache.Insert(cand.doc, cand_size, /*speculative=*/true, now);
        obs::FlightRecord(i, "spec.push", "pushed", cand.doc,
                          static_cast<double>(cand_size));
      }
    }
  }

  if (server_hints_ && model_ready_ && !degraded) {
    // The hint list itself is negligible; the client fetches hinted
    // documents it lacks as background prefetches.
    const SparseProbMatrix::RowView row =
        config.use_closure ? closure_.Row(doc) : model_.Row(doc);
    for (const auto& cand :
         SelectCandidates(row, *corpus_, config.policy)) {
      if (cache.Contains(cand.doc)) continue;
      const uint64_t cand_size = corpus_->doc(cand.doc).size_bytes;
      ++totals_.server_requests;
      obs::TsCount("spec.server_requests", now);
      ++totals_.prefetch_requests;
      totals_.bytes_sent += static_cast<double>(cand_size);
      totals_.speculative_bytes += static_cast<double>(cand_size);
      ++totals_.speculative_docs_sent;
      obs::TsCount("spec.speculative_docs_sent", now);
      obs::TsCount("spec.speculative_bytes", now,
                   static_cast<double>(cand_size));
      ++pushed_docs;
      cache.Insert(cand.doc, cand_size, /*speculative=*/true, now);
      obs::FlightRecord(i, "spec.hint", "prefetched", cand.doc,
                        static_cast<double>(cand_size));
      if (track_load_) {
        tracker_.RecordService(server, now, static_cast<double>(cand_size));
      }
      if (server_events_ != nullptr) {
        server_events_->push_back({now, static_cast<double>(cand_size)});
      }
    }
  }

  if (server_events_ != nullptr) {
    server_events_->push_back({now, response_bytes});
  }
  if (track_load_) tracker_.RecordService(server, now, response_bytes);
  totals_.bytes_sent += response_bytes;
  totals_.demand_bytes_sent += static_cast<double>(size);
  const double service_time =
      config.serv_cost +
      config.comm_cost * (config.charge_speculative_latency
                              ? response_bytes
                              : static_cast<double>(size));
  totals_.total_latency += service_time;
  cache.Insert(doc, size, /*speculative=*/false, now);

  if (sampled) {
    obs::JourneyRecord j;
    j.request = i;
    j.time_s = now;
    j.client = client;
    j.doc = doc;
    j.served_by = obs::kServedByServer;
    j.retries = request_retries;
    j.backoff_s = request_backoff;
    j.pushed_docs = pushed_docs;
    j.response_bytes = response_bytes;
    j.transfer_s = service_time;
    journey_.Record(j);
  }

  if (client_prefetches_ && !degraded) {
    // The client consults its own profile and fetches likely successors
    // in the background (each is a normal request to the server).
    const auto successors = profiles_[client].Successors(
        doc, config.client_prefetch_threshold,
        config.client_prefetch_min_support);
    for (const auto& cand : successors) {
      if (cache.Contains(cand.doc)) continue;
      const uint64_t cand_size = corpus_->doc(cand.doc).size_bytes;
      if (config.policy.max_size > 0 &&
          cand_size > config.policy.max_size) {
        continue;
      }
      ++totals_.server_requests;
      obs::TsCount("spec.server_requests", now);
      ++totals_.prefetch_requests;
      totals_.bytes_sent += static_cast<double>(cand_size);
      totals_.speculative_bytes += static_cast<double>(cand_size);
      ++totals_.speculative_docs_sent;
      obs::TsCount("spec.speculative_docs_sent", now);
      obs::TsCount("spec.speculative_bytes", now,
                   static_cast<double>(cand_size));
      cache.Insert(cand.doc, cand_size, /*speculative=*/true, now);
      obs::FlightRecord(i, "spec.prefetch", "prefetched", cand.doc,
                        static_cast<double>(cand_size));
      if (track_load_) {
        tracker_.RecordService(server, now, static_cast<double>(cand_size));
      }
      if (server_events_ != nullptr) {
        server_events_->push_back({now, static_cast<double>(cand_size)});
      }
    }
  }
  if (client_prefetches_) {
    profiles_[client].Observe(doc, now, config.dependency);
  }
}

RunTotals SpeculationReplay::Finish() {
  for (const auto& cache : caches_) {
    totals_.wasted_speculative_bytes +=
        static_cast<double>(cache.wasted_speculative_bytes());
    totals_.wasted_speculative_docs += cache.wasted_speculative_docs();
    totals_.unused_resident_speculative_docs +=
        cache.unused_speculative_docs();
  }
  if (track_load_) totals_.emergent_brownouts = tracker_.emergent_brownouts();
  for (const net::CircuitBreaker& b : breakers_) {
    totals_.breaker_open_transitions += b.open_transitions();
  }
  if (obs::Enabled()) {
    obs::Count("spec.runs");
    obs::Count("spec.client_requests",
               static_cast<double>(totals_.client_requests));
    obs::Count("spec.server_requests",
               static_cast<double>(totals_.server_requests));
    obs::Count("spec.speculative_docs_sent",
               static_cast<double>(totals_.speculative_docs_sent));
    obs::Count("spec.speculative_hits",
               static_cast<double>(totals_.speculative_hits));
    obs::Count("spec.speculative_bytes", totals_.speculative_bytes);
    obs::Count("spec.wasted_speculative_bytes",
               totals_.wasted_speculative_bytes);
    // Conservation legs (audited edges; see RegisterSpecAuditInvariants).
    obs::Count("spec.cache_hits", static_cast<double>(totals_.cache_hits));
    obs::Count("spec.demand_server_responses",
               static_cast<double>(totals_.demand_server_responses));
    obs::Count("spec.prefetch_requests",
               static_cast<double>(totals_.prefetch_requests));
    obs::Count("spec.bytes_sent", totals_.bytes_sent);
    obs::Count("spec.demand_bytes_sent", totals_.demand_bytes_sent);
    obs::Count("spec.wasted_speculative_docs",
               static_cast<double>(totals_.wasted_speculative_docs));
    obs::Count("spec.unused_resident_speculative_docs",
               static_cast<double>(totals_.unused_resident_speculative_docs));
    obs::Count("spec.suppressed_speculative_docs",
               static_cast<double>(totals_.suppressed_speculative_docs));
    obs::Count("spec.unavailable_requests",
               static_cast<double>(totals_.unavailable_requests));
    obs::Count("spec.retry_attempts",
               static_cast<double>(totals_.retry_attempts));
    obs::Count("spec.emergent_brownouts",
               static_cast<double>(totals_.emergent_brownouts));
    obs::Count("spec.breaker_open_transitions",
               static_cast<double>(totals_.breaker_open_transitions));
    obs::Count("spec.retries_suppressed_by_budget",
               static_cast<double>(totals_.retries_suppressed_by_budget));
    obs::Count("spec.shed_speculative_docs",
               static_cast<double>(totals_.shed_speculative_docs));
    obs::Count("spec.breaker_fast_fails",
               static_cast<double>(totals_.breaker_fast_fails));
    obs::Count("spec.closure.full_rebuilds",
               static_cast<double>(full_rebuilds_));
    obs::Count("spec.closure.rows_computed",
               static_cast<double>(closure_.RowsComputed()));
    run_span_.AddBytes(totals_.bytes_sent);
  }
  return totals_;
}

SpeculationSimulator::SpeculationSimulator(const trace::Corpus* corpus,
                                           const trace::Trace* trace)
    : corpus_(corpus), trace_(trace) {
  SDS_CHECK(corpus != nullptr);
  SDS_CHECK(trace != nullptr);
  size_t eligible = 0;
  for (const auto& r : trace->requests) {
    if (r.kind == trace::RequestKind::kDocument ||
        r.kind == trace::RequestKind::kAlias) {
      ++eligible;
    }
  }
  prepared_.time.reserve(eligible);
  prepared_.client.reserve(eligible);
  prepared_.server.reserve(eligible);
  prepared_.doc.reserve(eligible);
  prepared_.size_bytes.reserve(eligible);
  prepared_.day.reserve(eligible);
  for (const auto& r : trace->requests) {
    if (r.kind != trace::RequestKind::kDocument &&
        r.kind != trace::RequestKind::kAlias) {
      continue;
    }
    prepared_.time.push_back(r.time);
    prepared_.client.push_back(r.client);
    prepared_.server.push_back(r.server);
    prepared_.doc.push_back(r.doc);
    prepared_.size_bytes.push_back(corpus->doc(r.doc).size_bytes);
    prepared_.day.push_back(static_cast<uint32_t>(DayOfTime(r.time)));
  }
}

const std::vector<DayCounts>& SpeculationSimulator::DailyDeltas(
    const DependencyConfig& config) {
  const DeltaKey key = MakeDeltaKey(config);
  std::lock_guard<std::mutex> lock(delta_mutex_);
  auto it = delta_cache_.find(key);
  if (it == delta_cache_.end()) {
    obs::Count("spec.delta_cache.misses");
    it = delta_cache_.emplace(key, CountDailyDependencies(*trace_, config))
             .first;
  } else {
    obs::Count("spec.delta_cache.hits");
  }
  return it->second;
}

void SpeculationSimulator::Prewarm(const DependencyConfig& config) {
  DailyDeltas(config);
}

RunTotals SpeculationSimulator::Run(const SpeculationConfig& config,
                                    std::vector<ServerEvent>* server_events) {
  const bool needs_model = config.mode == ServiceMode::kSpeculativePush ||
                           config.mode == ServiceMode::kHybrid ||
                           config.mode == ServiceMode::kServerHints;
  const std::vector<DayCounts>* deltas =
      needs_model ? &DailyDeltas(config.dependency) : nullptr;
  DayCountsSource source;
  if (deltas != nullptr) {
    source = [deltas](long day) -> const DayCounts* {
      return day >= 0 && static_cast<size_t>(day) < deltas->size()
                 ? &(*deltas)[day]
                 : nullptr;
    };
  }
  SpeculationReplay replay(corpus_, trace_->num_clients, trace_->num_servers,
                           config, std::move(source), server_events);
  // Replay the prepared flat arrays (kDocument/kAlias requests only, with
  // sizes and day indices resolved at construction).
  const PreparedSpecTrace& pt = prepared_;
  SpeculationReplay::Record rec;
  for (size_t i = 0; i < pt.size(); ++i) {
    rec.time = pt.time[i];
    rec.client = pt.client[i];
    rec.server = pt.server[i];
    rec.doc = pt.doc[i];
    rec.size_bytes = pt.size_bytes[i];
    rec.day = pt.day[i];
    replay.OnRequest(i, rec);
  }
  return replay.Finish();
}

SpeculationMetrics SpeculationSimulator::Evaluate(
    const SpeculationConfig& config) {
  SpeculationConfig baseline = config;
  baseline.mode = ServiceMode::kNone;
  const RunTotals without_spec = Run(baseline);
  const RunTotals with_spec = Run(config);
  return ComputeMetrics(with_spec, without_spec);
}

StreamingSpeculationSimulator::StreamingSpeculationSimulator(
    const trace::Corpus* corpus, trace::RequestCursor* replay,
    trace::RequestCursor* deps)
    : corpus_(corpus), replay_(replay), deps_(deps) {
  SDS_CHECK(corpus != nullptr);
  SDS_CHECK(replay != nullptr);
}

RunTotals StreamingSpeculationSimulator::Run(
    const SpeculationConfig& config,
    std::vector<ServerEvent>* server_events) {
  replay_->Rewind();
  const bool needs_model = config.mode == ServiceMode::kSpeculativePush ||
                           config.mode == ServiceMode::kHybrid ||
                           config.mode == ServiceMode::kServerHints;
  std::unique_ptr<DailyDependencyAccumulator> acc;
  bool deps_done = false;
  DayCountsSource source;
  if (needs_model) {
    SDS_CHECK(deps_ != nullptr)
        << "speculative modes need a dependency cursor";
    deps_->Rewind();
    acc = std::make_unique<DailyDependencyAccumulator>(
        config.dependency, replay_->num_clients());
    // Pump the dependency cursor just far enough to finalise the requested
    // day, then release days the sliding window can never consult again.
    source = [this, a = acc.get(), &deps_done,
              history = static_cast<long>(config.history_days)](
                 long day) -> const DayCounts* {
      if (day < 0) return nullptr;
      const uint32_t d = static_cast<uint32_t>(day);
      while (!deps_done && !a->DayFinal(d)) {
        const auto chunk = deps_->NextChunk();
        if (chunk.empty()) {
          a->FinishStream();
          deps_done = true;
          break;
        }
        for (const auto& r : chunk) a->OnRequest(r);
      }
      const DayCounts* counts = a->Counts(d);
      if (day > history) a->DropBefore(static_cast<uint32_t>(day - history));
      return counts;
    };
  }
  SpeculationReplay sr(corpus_, replay_->num_clients(),
                       replay_->num_servers(), config, std::move(source),
                       server_events);
  size_t i = 0;
  SpeculationReplay::Record rec;
  for (auto chunk = replay_->NextChunk(); !chunk.empty();
       chunk = replay_->NextChunk()) {
    for (const auto& r : chunk) {
      if (r.kind != trace::RequestKind::kDocument &&
          r.kind != trace::RequestKind::kAlias) {
        continue;
      }
      rec.time = r.time;
      rec.client = r.client;
      rec.server = r.server;
      rec.doc = r.doc;
      rec.size_bytes = corpus_->doc(r.doc).size_bytes;
      rec.day = static_cast<uint32_t>(DayOfTime(r.time));
      sr.OnRequest(i++, rec);
    }
  }
  return sr.Finish();
}

SpeculationMetrics StreamingSpeculationSimulator::Evaluate(
    const SpeculationConfig& config) {
  SpeculationConfig baseline = config;
  baseline.mode = ServiceMode::kNone;
  const RunTotals without_spec = Run(baseline);
  const RunTotals with_spec = Run(config);
  return ComputeMetrics(with_spec, without_spec);
}

}  // namespace sds::spec
