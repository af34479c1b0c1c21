#ifndef SDS_SPEC_SIMULATOR_H_
#define SDS_SPEC_SIMULATOR_H_

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/faults.h"
#include "obs/journey.h"
#include "obs/trace.h"
#include "spec/aging.h"
#include "spec/client_cache.h"
#include "spec/closure.h"
#include "spec/dependency.h"
#include "spec/metrics.h"
#include "spec/policy.h"
#include "spec/queueing.h"
#include "trace/corpus.h"
#include "trace/cursor.h"
#include "trace/request.h"
#include "util/rng.h"

namespace sds::spec {

/// \brief Service protocol variant (§3.2 and §3.4 of the paper).
enum class ServiceMode : uint8_t {
  /// Plain request/response (the baseline both runs are compared to).
  kNone = 0,
  /// Server-initiated speculative service: the server pushes documents
  /// with p*[i,j] >= T_p along with every response.
  kSpeculativePush = 1,
  /// Client-initiated prefetching from per-user profiles (server attaches
  /// hints; the client decides using its own access history).
  kClientPrefetch = 2,
  /// Hybrid: the server pushes only near-certain documents (embedding
  /// grade, p* >= hybrid_push_threshold); the client prefetches the rest
  /// from its profile.
  kHybrid = 3,
  /// Server-assisted prefetching (§3.4): the server attaches the list of
  /// candidate URLs to each response instead of pushing bodies; the client
  /// fetches the hinted documents it does not hold. No duplicate bytes are
  /// ever sent, but every accepted hint is a separate server request.
  kServerHints = 4,
};

const char* ServiceModeToString(ServiceMode mode);

/// \brief Full parameter set of the trace-driven speculation simulation;
/// defaults are the paper's baseline model (table in §3.2).
struct SpeculationConfig {
  // Cost model: cost of communicating one byte and of servicing one
  // request, used for the service-time metric.
  double comm_cost = 1.0;
  double serv_cost = 10000.0;
  /// If true, speculative bytes in a response delay the requested document
  /// (strictly serial transfer). Default false: the requested document is
  /// delivered first and speculative documents trail it, so a miss costs
  /// ServCost + CommCost x size(requested) regardless of speculation —
  /// matching the paper's monotone service-time curves.
  bool charge_speculative_latency = false;

  /// Dependency estimation (T_w, StrideTimeout, pruning).
  DependencyConfig dependency;
  /// Closure computation.
  ClosureConfig closure;
  /// If false, the policy consults the raw P instead of the closure P*.
  bool use_closure = true;
  /// How past observations are weighted when estimating P.
  enum class EstimatorKind : uint8_t {
    /// The paper's baseline: a sliding window of the last D' days.
    kSlidingWindow = 0,
    /// The aging mechanism of §3.4: counters decay exponentially per day
    /// (effective history ~ 1 / (1 - decay) days).
    kExponentialDecay = 1,
  };
  EstimatorKind estimator = EstimatorKind::kSlidingWindow;
  double decay_per_day = 0.95;
  /// D': days of history used to estimate P and P* (sliding window only).
  uint32_t history_days = 60;
  /// D: the relations are re-estimated every this many days. Each
  /// re-estimation rebuilds P from the whole history and drops every
  /// cached closure row; rows are recomputed lazily when requested.
  uint32_t update_cycle_days = 1;

  /// Speculation policy (T_p, MaxSize, ...).
  PolicyConfig policy;
  /// Client caching model (SessionTimeout, capacity).
  ClientCacheConfig cache;

  ServiceMode mode = ServiceMode::kSpeculativePush;
  /// Cooperative clients (§3.4): requests piggy-back a digest of the
  /// client's cache, letting the server skip documents already cached.
  bool cooperative_clients = false;

  /// kHybrid: push threshold for the server-initiated part.
  double hybrid_push_threshold = 0.95;
  /// kClientPrefetch / kHybrid: client-side profile threshold and support.
  double client_prefetch_threshold = 0.4;
  /// Client heuristics fire on a single past co-occurrence (a user's own
  /// history is tiny compared with the server's logs).
  uint32_t client_prefetch_min_support = 1;

  /// Failure schedule overlaid on the replay (null or empty = fault-free,
  /// bit-identical to the pre-fault-injection simulator). Server outages
  /// make cache misses retry with backoff and eventually fail; brownouts
  /// (kServerBrownout) keep demand service up but shed all speculative
  /// pushes, hints and prefetch service. Must outlive the run.
  const net::FaultSchedule* faults = nullptr;
  /// Retry policy for misses that hit a server outage.
  net::RetryPolicy retry;
  /// Seed of the jitter stream used by `retry` (the simulator has no Rng
  /// parameter; sweeps derive this from their per-point stream to keep
  /// parallel == serial bit-identity). Unused when jitter == 0.
  uint64_t retry_jitter_seed = 0;
  /// Self-protection stack (docs/FAULTS.md "Cascades and self-protection").
  /// With `track_load` armed, every request the server absorbs counts
  /// toward a rolling utilization window and crossing the threshold sheds
  /// speculative work mid-run (an emergent brownout); circuit breakers
  /// fail misses fast during outages and retry budgets cap storm retries.
  /// All off by default, leaving existing replays bit-identical.
  net::ProtectionConfig protection;
};

/// \brief Immutable flat view of the replayable requests of a trace
/// (kDocument/kAlias only), with document sizes and day indices resolved
/// up front. Built once per simulator and shared read-only by every Run:
/// the replay loop streams these parallel arrays instead of re-filtering
/// request structs and chasing corpus lookups on every sweep point.
struct PreparedSpecTrace {
  std::vector<SimTime> time;
  std::vector<trace::ClientId> client;
  std::vector<trace::ServerId> server;
  std::vector<trace::DocumentId> doc;
  /// Corpus size of `doc` (the response size of a demand fetch).
  std::vector<uint64_t> size_bytes;
  /// DayOfTime(time), precomputed for the day-roll check.
  std::vector<uint32_t> day;

  size_t size() const { return time.size(); }
};

namespace internal {

/// Per-client access profile for client-initiated prefetching: the same
/// pair statistics as the server's P, but restricted to this user's own
/// history and learned online (only the past is ever consulted).
struct UserProfile {
  std::unordered_map<uint64_t, uint32_t> pair_counts;
  std::unordered_map<trace::DocumentId, uint32_t> occurrences;
  /// Recent requests within the dependency window.
  std::deque<std::pair<SimTime, trace::DocumentId>> recent;

  void Observe(trace::DocumentId doc, SimTime now,
               const DependencyConfig& config);
  double Probability(trace::DocumentId i, trace::DocumentId j,
                     uint32_t min_support) const;
  /// Documents this user historically requests after `doc`, with
  /// probability above the threshold.
  std::vector<CandidateDoc> Successors(trace::DocumentId doc,
                                       double threshold,
                                       uint32_t min_support) const;
};

}  // namespace internal

/// \brief Source of finished per-day dependency counts for the replay's
/// day-roll. Called with a day index >= 0; returns nullptr when the day is
/// outside the counted range (equivalent to an empty day). The batch path
/// wraps the cached CountDailyDependencies vector; the streaming path pumps
/// a DailyDependencyAccumulator just far enough to finalise the day.
using DayCountsSource = std::function<const DayCounts*(long day)>;

/// \brief The speculation replay loop, one request at a time.
///
/// Holds every piece of per-run state (model counters, client caches,
/// protection stack, totals) so a run needs only O(clients + model)
/// resident memory regardless of trace length. SpeculationSimulator::Run
/// feeds it from the prepared flat arrays; the streaming path feeds it
/// straight from a request cursor. Both produce bit-identical RunTotals
/// because this class *is* the former Run loop body, verbatim.
class SpeculationReplay {
 public:
  /// `corpus`, `config` and `deltas` must outlive the replay. `deltas` may
  /// be empty only when the mode needs no model. `server_events`, if
  /// non-null, is cleared and then receives one time-ordered entry per
  /// request that reached the server.
  SpeculationReplay(const trace::Corpus* corpus, uint32_t num_clients,
                    uint32_t num_servers, const SpeculationConfig& config,
                    DayCountsSource deltas,
                    std::vector<ServerEvent>* server_events);
  /// Not copyable or movable: closure_ points at model_.
  SpeculationReplay(const SpeculationReplay&) = delete;
  SpeculationReplay& operator=(const SpeculationReplay&) = delete;

  /// One replayable (kDocument/kAlias) request, with its corpus size and
  /// day index resolved. `i` is the global ordinal of the request among
  /// eligible requests (drives journey sampling).
  struct Record {
    SimTime time = 0.0;
    trace::ClientId client = 0;
    trace::ServerId server = 0;
    trace::DocumentId doc = trace::kInvalidDocument;
    uint64_t size_bytes = 0;
    uint32_t day = 0;
  };

  void OnRequest(size_t i, const Record& rec);

  /// Folds per-cache waste and protection counters into the totals and
  /// emits the run's observability block. The replay is spent afterwards.
  RunTotals Finish();

 private:
  void RollDay(uint32_t day);

  obs::SpanGuard run_span_;
  obs::JourneyRun journey_;
  const trace::Corpus* corpus_;
  const SpeculationConfig* config_;
  DayCountsSource deltas_;
  std::vector<ServerEvent>* server_events_;

  bool server_speculates_ = false;
  bool server_hints_ = false;
  bool client_prefetches_ = false;
  bool needs_model_ = false;
  bool use_decay_ = false;
  bool faulty_ = false;
  bool track_load_ = false;
  bool breakers_armed_ = false;
  bool budget_armed_ = false;
  bool admission_armed_ = false;

  WindowedCounts counts_;
  DecayedCounts decayed_;
  /// P, rebuilt from the window at every UpdateCycle boundary, and its
  /// lazily computed closure rows (dropped at each rebuild).
  SparseProbMatrix model_;
  ClosureCache closure_;
  uint64_t full_rebuilds_ = 0;
  bool model_ready_ = false;
  long current_day_ = 0;

  std::vector<ClientCache> caches_;
  std::vector<internal::UserProfile> profiles_;
  PolicyConfig push_policy_;
  RunTotals totals_;
  Rng retry_rng_;

  net::LoadTracker tracker_;
  std::vector<net::CircuitBreaker> breakers_;
  net::RetryBudget retry_budget_;
};

/// \brief Trace-driven simulator of speculative service.
///
/// Construct once per (corpus, trace); Run replays the trace under a
/// configuration and returns raw totals; Evaluate additionally replays the
/// plain protocol with identical caching and returns the paper's four
/// ratios. Per-day dependency counts are cached across runs that share
/// (T_w, StrideTimeout), which makes parameter sweeps (T_p, MaxSize, ...)
/// cheap.
///
/// Thread safety: Run and Evaluate may be called concurrently from any
/// number of threads on the same simulator (all replay state is local to
/// the call; the shared per-day count cache is mutex-guarded and its
/// contents are a pure function of the dependency config). Core sweeps
/// call Prewarm first so that workers do not serialise on the first cache
/// fill.
class SpeculationSimulator {
 public:
  /// `corpus` and `trace` must outlive the simulator. The trace should be
  /// preprocessed (FilterTrace); kNotFound/kScript records are ignored.
  SpeculationSimulator(const trace::Corpus* corpus,
                       const trace::Trace* trace);

  SpeculationSimulator(const SpeculationSimulator&) = delete;
  SpeculationSimulator& operator=(const SpeculationSimulator&) = delete;

  /// Replays the trace under `config`. If `server_events` is non-null it
  /// receives one time-ordered entry per request that reached the server
  /// (misses, prefetches, hint fetches) with its response size, ready for
  /// ComputeQueueStats.
  RunTotals Run(const SpeculationConfig& config,
                std::vector<ServerEvent>* server_events = nullptr);

  /// Runs `config` and its mode-kNone twin and computes the four ratios.
  SpeculationMetrics Evaluate(const SpeculationConfig& config);

  /// Builds the per-day dependency counts for `config` now (a no-op if
  /// already cached). Parallel sweeps whose points share a dependency
  /// config call this once up front so the table is construction-time
  /// built instead of lazily filled under the cache mutex.
  void Prewarm(const DependencyConfig& config);

  /// The shared flat replay context (exposed for benchmarks).
  const PreparedSpecTrace& prepared() const { return prepared_; }

 private:
  /// Cache key for (window, stride_timeout): the doubles are keyed by
  /// their bit patterns, so -0.0 and 0.0 map to distinct entries instead
  /// of aliasing, and a NaN parameter gets a well-defined slot instead of
  /// breaking the map's strict weak ordering (NaN < NaN is false both
  /// ways under operator< on doubles, which std::map must not see).
  using DeltaKey = std::array<uint64_t, 2>;
  static DeltaKey MakeDeltaKey(const DependencyConfig& config) {
    return {std::bit_cast<uint64_t>(config.window),
            std::bit_cast<uint64_t>(config.stride_timeout)};
  }

  const std::vector<DayCounts>& DailyDeltas(const DependencyConfig& config);

  const trace::Corpus* corpus_;
  const trace::Trace* trace_;
  PreparedSpecTrace prepared_;
  /// Cache of per-day dependency counts keyed by the bit-exact
  /// (window, stride timeout) pair. Guarded by delta_mutex_; entries are
  /// immutable once inserted and std::map never moves them, so returned
  /// references stay valid.
  std::map<DeltaKey, std::vector<DayCounts>> delta_cache_;
  std::mutex delta_mutex_;
};

/// \brief Streaming counterpart of SpeculationSimulator: replays a
/// time-ordered request cursor with O(clients + model + lookahead)
/// resident state instead of materializing the trace.
///
/// Two independent cursors over the same stream are required: `replay`
/// drives the simulation; `deps` is pumped at most one dependency window
/// past each finished day boundary to finalise that day's pair counts
/// before the day-roll consumes them. Results are bit-identical to the
/// batch simulator on the materialized trace (pinned by
/// tests/spec/streaming_equivalence_test.cc).
class StreamingSpeculationSimulator {
 public:
  /// `corpus` and the cursors must outlive the simulator. `deps` may be
  /// null when every run's mode is kNone (no model is ever built). Both
  /// cursors are Rewind()-ed at the start of each run.
  StreamingSpeculationSimulator(const trace::Corpus* corpus,
                                trace::RequestCursor* replay,
                                trace::RequestCursor* deps);

  RunTotals Run(const SpeculationConfig& config,
                std::vector<ServerEvent>* server_events = nullptr);

  /// Runs `config` and its mode-kNone twin and computes the four ratios.
  SpeculationMetrics Evaluate(const SpeculationConfig& config);

 private:
  const trace::Corpus* corpus_;
  trace::RequestCursor* replay_;
  trace::RequestCursor* deps_;
};

}  // namespace sds::spec

#endif  // SDS_SPEC_SIMULATOR_H_
