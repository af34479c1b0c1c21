#ifndef SDS_CORE_EXPERIMENTS_H_
#define SDS_CORE_EXPERIMENTS_H_

#include <cstdint>
#include <vector>

#include "core/sweep.h"
#include "core/workload.h"
#include "dissem/classify.h"
#include "dissem/simulator.h"
#include "net/faults.h"
#include "spec/simulator.h"
#include "util/table.h"

namespace sds::core {

/// \brief The paper's baseline simulation parameters (§3.2 table):
/// CommCost 1, ServCost 10,000, StrideTimeout 5 s, SessionTimeout ∞,
/// MaxSize ∞, policy p*[i,j] >= T_p, HistoryLength 60 d, UpdateCycle 1 d.
spec::SpeculationConfig BaselineSpecConfig();

// ---------------------------------------------------------------------------
// Figure 1 — popularity of data blocks and bandwidth coverage
// ---------------------------------------------------------------------------

struct Fig1Result {
  uint64_t block_size = 0;
  std::vector<double> block_request_fraction;  ///< Descending, per block.
  std::vector<double> cumulative_requests;
  std::vector<double> cumulative_bytes;
  uint32_t total_docs = 0;
  uint32_t accessed_docs = 0;
  uint64_t total_bytes = 0;
  uint64_t accessed_bytes = 0;
  /// Request share of the most popular 0.5% / 10% of the server's bytes
  /// (the paper: 69% and 91%).
  double top_half_percent_coverage = 0.0;
  double top_ten_percent_coverage = 0.0;

  Table ToTable(size_t max_rows = 32) const;
};

Fig1Result RunFig1(const Workload& workload,
                   uint64_t block_size = 256 * 1024);

// ---------------------------------------------------------------------------
// §2 document classes (remotely/locally/globally popular; mutability)
// ---------------------------------------------------------------------------

struct Tab1Result {
  dissem::DocumentClassification classification;
  uint32_t accessed_docs = 0;
  double remote_mean_update_rate = 0.0;
  double local_mean_update_rate = 0.0;
  double global_mean_update_rate = 0.0;

  Table ToTable() const;
};

Tab1Result RunTab1(const Workload& workload);

// ---------------------------------------------------------------------------
// Figure 2 — storage allocation for equally popular servers (eq. 7)
// ---------------------------------------------------------------------------

struct Fig2Result {
  /// λ_j / λ_i of the deviant server (x axis, log spaced).
  std::vector<double> lambda_ratio;
  /// Allocation B_j (in units of 1/λ_i) under tight (B_0 = 1/λ_i) and lax
  /// (B_0 = 10/λ_i) total storage, clamped at 0 for display.
  std::vector<double> tight_allocation;
  std::vector<double> lax_allocation;

  Table ToTable() const;
};

Fig2Result RunFig2(uint32_t n = 10);

// ---------------------------------------------------------------------------
// §2.3 symmetric-cluster worked numbers (eq. 10, corrected)
// ---------------------------------------------------------------------------

struct Tab2Result {
  double storage_10_servers_90pct = 0.0;   ///< Paper: ~36 MB.
  double shield_100_servers_500mb = 0.0;   ///< Paper: ~96%.
  Table table = Table({"case", "paper", "computed"});
};

Tab2Result RunTab2();

// ---------------------------------------------------------------------------
// Figure 3 — bandwidth (bytes x hops) saved by dissemination
// ---------------------------------------------------------------------------

struct Fig3Result {
  std::vector<uint32_t> num_proxies;
  /// Saved fraction for the two dissemination levels of the figure.
  std::vector<double> saved_top10;
  std::vector<double> saved_top4;
  /// Total storage across proxies at each point.
  std::vector<double> storage_top10;
  std::vector<double> storage_top4;
  /// Tailored (per-proxy) dissemination at the 10% level (footnote 5).
  std::vector<double> saved_top10_tailored;
  /// Timing of the proxy-count sweep.
  SweepStats sweep;

  Table ToTable() const;
};

/// Each proxy count is one sweep point; point k's three dissemination
/// simulations share one RNG stream derived from (options.seed, k), so the
/// result is identical for any worker count.
Fig3Result RunFig3(const Workload& workload, uint32_t max_proxies = 16,
                   const SweepOptions& options = {});

// ---------------------------------------------------------------------------
// Figure 4 — histogram of p[i, j] pair probabilities
// ---------------------------------------------------------------------------

struct Fig4Result {
  std::vector<double> bin_lo;
  std::vector<double> bin_count;
  /// Bin centres of detected local maxima (paper: peaks near 1/k).
  std::vector<double> peak_centers;
  size_t total_pairs = 0;

  Table ToTable() const;
};

Fig4Result RunFig4(const Workload& workload, double window = 5.0,
                   size_t bins = 40, uint32_t history_days = 30);

// ---------------------------------------------------------------------------
// Figures 5 & 6 — baseline speculative service sweep over T_p
// ---------------------------------------------------------------------------

struct SpecSweepPoint {
  double tp = 1.0;
  spec::SpeculationMetrics metrics;
};

struct Fig5Result {
  std::vector<SpecSweepPoint> points;
  /// Timing of the T_p sweep.
  SweepStats sweep;

  Table ToTable() const;      ///< Figure 5: ratios vs T_p.
  Table ToFig6Table() const;  ///< Figure 6: reductions vs extra traffic.
};

/// Each sweep point rebuilds P from the history window at every update
/// cycle and computes the closure rows it needs lazily (§3.4).
Fig5Result RunFig5(const Workload& workload,
                   const std::vector<double>& tps = {},
                   const SweepOptions& options = {});

// ---------------------------------------------------------------------------
// Figure 7 — availability under fault injection (this reproduction's
// extension: replicas keep documents reachable when the home server or a
// tree link is down)
// ---------------------------------------------------------------------------

struct Fig7Result {
  /// Per-entity per-day outage rates (rows) x proxy counts (columns).
  std::vector<double> failure_rates;
  std::vector<uint32_t> num_proxies;
  /// Row-major: cells[rate_index * num_proxies.size() + proxy_index].
  std::vector<dissem::DisseminationResult> cells;
  SweepStats sweep;

  const dissem::DisseminationResult& cell(size_t rate_index,
                                          size_t proxy_index) const {
    return cells[rate_index * num_proxies.size() + proxy_index];
  }

  Table ToTable() const;
};

/// Sweeps failure rate x num_proxies over the dissemination simulator with
/// fault injection. Every cell of one row shares the same failure schedule
/// (generated from a stream that is a pure function of (options.seed,
/// rate_index)), so availability is comparable across proxy counts and the
/// whole grid is bit-identical for any worker count. Rate r maps to node
/// and server outage rates r/day and link outage rate r/2/day.
Fig7Result RunFig7(const Workload& workload,
                   const std::vector<double>& failure_rates = {},
                   const std::vector<uint32_t>& proxies = {},
                   const SweepOptions& options = {});

// ---------------------------------------------------------------------------
// Figure 8 — resilience under cascading failures (this reproduction's
// extension: emergent, load-coupled brownouts vs the self-protection stack)
// ---------------------------------------------------------------------------

/// The protection stacks compared by fig8. Load tracking (the cascade
/// engine) is armed in every arm; the arms differ in the defenses.
enum class Fig8Protection : uint8_t {
  kOff = 0,       ///< No defenses: retry storms hammer overloaded targets.
  kBreakers = 1,  ///< Circuit breakers on every failover target.
  kFull = 2,      ///< Breakers + retry budget + admission control.
};

const char* Fig8ProtectionToString(Fig8Protection level);

struct Fig8Result {
  /// Per-entity per-day outage rates (rows) x protection stacks (columns).
  std::vector<double> failure_rates;
  std::vector<Fig8Protection> levels;

  struct Cell {
    dissem::DisseminationResult sim;
    /// Scheduled fault events of this row's shared schedule (the seed
    /// outages the cascade grows from).
    uint64_t scheduled_events = 0;
    double availability = 1.0;  ///< 1 - unavailable_fraction.
    /// Attempts per request: 1 + retry_attempts / evaluated requests.
    double retry_amplification = 1.0;
    /// Emergent brownouts per seed outage event.
    double cascade_depth = 0.0;
    /// Bytes of successfully served requests per second of eval window.
    double goodput_bytes_per_s = 0.0;
  };
  /// Row-major: cells[rate_index * levels.size() + level_index].
  std::vector<Cell> cells;
  SweepStats sweep;

  const Cell& cell(size_t rate_index, size_t level_index) const {
    return cells[rate_index * levels.size() + level_index];
  }

  Table ToTable() const;
};

/// Sweeps failure rate x protection stack over the dissemination simulator
/// with the cascade engine armed: offered load is tracked per entity
/// during the replay and overload triggers emergent brownouts, so a dead
/// proxy's redirected traffic can brown out its failover targets and
/// retry storms amplify the damage. Every cell of a row shares the same
/// zone-correlated failure schedule (pure function of (options.seed,
/// rate_index)), so the arms are directly comparable and the grid is
/// bit-identical for any worker count. The headline: the full stack
/// flattens the cascade while the unprotected system collapses.
Fig8Result RunFig8(const Workload& workload,
                   const std::vector<double>& failure_rates = {},
                   const SweepOptions& options = {});

// ---------------------------------------------------------------------------
// Figure 9 — randomized load balancing vs the static optimum (this
// reproduction's extension: power-of-d-choices replica selection and
// proximity-aware allocation, per arXiv:1706.10209 / arXiv:1610.05961)
// ---------------------------------------------------------------------------

/// The dissemination policies compared by fig9.
enum class Fig9Policy : uint8_t {
  /// The paper's static Lagrange optimum: greedy placement, equal
  /// budgets, nearest-on-route selection.
  kStatic = 0,
  /// Static placement + d-choice replica selection at request time.
  kDChoice = 1,
  /// Proximity-aware placement + proximity-weighted budgets.
  kProximity = 2,
};

const char* Fig9PolicyToString(Fig9Policy policy);

struct Fig9Result {
  /// One policy column of the grid.
  struct Arm {
    Fig9Policy policy = Fig9Policy::kStatic;
    uint32_t d = 1;        ///< selection_d (1 for static / proximity arms).
    bool faulted = false;  ///< Zone outages + brownout windows overlaid.
  };
  /// One (storage fraction, proxy count) row of the grid.
  struct Row {
    double storage_fraction = 0.0;
    uint32_t num_proxies = 0;
  };
  struct Cell {
    dissem::DisseminationResult sim;
    double availability = 1.0;  ///< 1 - unavailable_fraction.
  };

  std::vector<Row> rows;
  std::vector<Arm> arms;
  /// Row-major: cells[row_index * arms.size() + arm_index].
  std::vector<Cell> cells;
  SweepStats sweep;

  const Cell& cell(size_t row_index, size_t arm_index) const {
    return cells[row_index * arms.size() + arm_index];
  }

  Table ToTable() const;
};

/// Sweeps (storage fraction x proxy count) x policy arms over the
/// dissemination simulator: the static Lagrange optimum vs d-choice
/// replica selection (one arm per d in `d_values`) vs proximity-aware
/// placement/allocation, each fault-free and under a shared fault overlay
/// (zone-correlated outages plus deterministic server-brownout windows, so
/// every faulted cell replays the same environment). The headline: d >= 2
/// cuts the max/mean proxy-load imbalance at equal storage while the
/// static optimum concentrates load on the hottest proxy. Per-point RNG
/// streams keep the grid bit-identical for any worker count, on both the
/// batch and streaming (cursor) paths; the d = 1 configuration draws no
/// selection randomness and reproduces the static arm bit-for-bit.
Fig9Result RunFig9(const Workload& workload,
                   const std::vector<double>& storage_fractions = {},
                   const std::vector<uint32_t>& proxies = {},
                   const std::vector<uint32_t>& d_values = {},
                   const SweepOptions& options = {});

// ---------------------------------------------------------------------------
// §3.4 fine-tuning experiments
// ---------------------------------------------------------------------------

/// E1: stability of P/P* — update cycle D in {1, 7, 60} (and history D' in
/// {30, 60}) at a fixed moderate T_p.
struct ExpUpdateCycleResult {
  struct Row {
    uint32_t update_cycle_days = 1;
    uint32_t history_days = 60;
    spec::SpeculationMetrics metrics;
  };
  std::vector<Row> rows;
  SweepStats sweep;
  /// Mean absolute degradation of the three reduction metrics vs the
  /// (D = 1, D' = 60) row.
  double MeanDegradation(size_t row) const;

  Table ToTable() const;
};

ExpUpdateCycleResult RunExpUpdateCycle(const Workload& workload,
                                       double tp = 0.25,
                                       const SweepOptions& options = {});

/// E2: effect of MaxSize at a fixed T_p.
struct ExpMaxSizeResult {
  struct Row {
    uint64_t max_size = 0;  ///< 0 = unlimited.
    spec::SpeculationMetrics metrics;
  };
  std::vector<Row> rows;
  SweepStats sweep;

  Table ToTable() const;
};

ExpMaxSizeResult RunExpMaxSize(const Workload& workload, double tp = 0.15,
                               const SweepOptions& options = {});

/// E3: effect of client caching (SessionTimeout 0 / 1 h / ∞, plus a finite
/// LRU cache) at a fixed T_p.
struct ExpClientCachingResult {
  struct Row {
    const char* label = "";
    double session_timeout = 0.0;
    uint64_t capacity = 0;
    spec::SpeculationMetrics metrics;
  };
  std::vector<Row> rows;
  SweepStats sweep;

  Table ToTable() const;
};

ExpClientCachingResult RunExpClientCaching(const Workload& workload,
                                           double tp = 0.25,
                                           const SweepOptions& options = {});

/// E4: cooperative clients (cache digests) vs blind speculation.
struct ExpCooperativeResult {
  struct Row {
    bool cooperative = false;
    double tp = 0.25;
    spec::SpeculationMetrics metrics;
  };
  std::vector<Row> rows;
  SweepStats sweep;

  Table ToTable() const;
};

ExpCooperativeResult RunExpCooperative(const Workload& workload,
                                       const SweepOptions& options = {});

/// E5: server push vs client-initiated prefetching vs the hybrid protocol.
struct ExpPrefetchResult {
  struct Row {
    spec::ServiceMode mode = spec::ServiceMode::kSpeculativePush;
    spec::SpeculationMetrics metrics;
  };
  std::vector<Row> rows;
  SweepStats sweep;

  Table ToTable() const;
};

ExpPrefetchResult RunExpPrefetch(const Workload& workload, double tp = 0.25,
                                 const SweepOptions& options = {});

}  // namespace sds::core

#endif  // SDS_CORE_EXPERIMENTS_H_
