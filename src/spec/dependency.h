#ifndef SDS_SPEC_DEPENDENCY_H_
#define SDS_SPEC_DEPENDENCY_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "spec/pair_table.h"
#include "trace/cursor.h"
#include "trace/request.h"
#include "trace/sessionizer.h"
#include "util/sim_time.h"

namespace sds::spec {

/// \brief Packs an ordered document pair into a 64-bit key.
inline uint64_t PairKey(trace::DocumentId i, trace::DocumentId j) {
  return (static_cast<uint64_t>(i) << 32) | j;
}

/// \brief Sparse row-major matrix of conditional probabilities p[i, j]
/// (the paper's P relation): probability that D_j is requested within the
/// window T_w given that D_i was requested.
///
/// Storage is CSR: Add() stages (row, entry) triplets, SortRows() finalises
/// them into one contiguous offsets/entries layout. Row() is then a span
/// over the shared entry array — no per-row vector headers, no per-row
/// allocations, and sequential row scans walk contiguous memory.
class SparseProbMatrix {
 public:
  struct Entry {
    trace::DocumentId doc = trace::kInvalidDocument;
    float probability = 0.0f;
  };
  /// A finalised row: contiguous entries sorted by descending probability.
  using RowView = std::span<const Entry>;

  SparseProbMatrix() = default;
  explicit SparseProbMatrix(size_t num_docs) : num_docs_(num_docs) {}

  size_t num_docs() const { return num_docs_; }

  /// Entries of row i, sorted by descending probability. Valid after
  /// SortRows(); an empty view before any insertion.
  RowView Row(trace::DocumentId i) const {
    if (offsets_.empty()) return {};
    return RowView(entries_.data() + offsets_[i],
                   offsets_[i + 1] - offsets_[i]);
  }

  /// Probability p[i, j]; 0 if absent.
  double Get(trace::DocumentId i, trace::DocumentId j) const;

  /// Adds an entry (caller guarantees j unique within row i); call
  /// SortRows() once after all insertions.
  void Add(trace::DocumentId i, trace::DocumentId j, double p) {
    if (!offsets_.empty()) Definalize();
    staging_.push_back({i, {j, static_cast<float>(p)}});
  }

  /// Pre-sizes the staging area for `entries` insertions.
  void Reserve(size_t entries) { staging_.reserve(entries); }

  /// Finalises the staged entries into CSR form, every row sorted by
  /// descending probability (ties by doc id).
  void SortRows();

  /// Total number of stored (i, j) entries.
  size_t NumEntries() const {
    return offsets_.empty() ? staging_.size() : entries_.size();
  }

 private:
  void Definalize();

  size_t num_docs_ = 0;
  /// Staged (row, entry) triplets awaiting SortRows().
  std::vector<std::pair<trace::DocumentId, Entry>> staging_;
  /// CSR layout: row i occupies entries_[offsets_[i], offsets_[i + 1]).
  std::vector<uint32_t> offsets_;
  std::vector<Entry> entries_;
};

/// \brief Pair/occurrence counters for one day of trace; the building block
/// of the sliding HistoryLength window.
///
/// Flat layout: both counters are sorted unique (key, count) runs. Build by
/// appending raw observations, then call Normalize() once to sort and
/// merge-sum duplicates.
struct DayCounts {
  /// PairKey(i, j) -> occurrences of i followed by j within T_w. Sorted by
  /// key, unique, after Normalize().
  std::vector<std::pair<uint64_t, uint32_t>> pair_counts;
  /// doc -> occurrences (the denominator of p[i, j]). Sorted, unique,
  /// after Normalize().
  std::vector<std::pair<trace::DocumentId, uint32_t>> occurrences;

  /// Sorts both runs by key and merges duplicates by summing counts.
  void Normalize();
};

/// \brief Counting parameters (paper §3.1/§3.2).
struct DependencyConfig {
  /// T_w: D_j must follow D_i within this many seconds.
  SimTime window = 5.0;
  /// StrideTimeout: pairs only count within a traversal stride (successive
  /// requests less than this many seconds apart). Small values restrict
  /// the relation to embedding dependencies; larger values admit traversal
  /// dependencies too.
  SimTime stride_timeout = 5.0;
  /// Entries below this probability are dropped from P.
  double min_probability = 0.02;
  /// Entries supported by fewer pair observations are dropped.
  uint32_t min_support = 3;
};

/// \brief Walks every (occurrence, following-document) dependency pair of
/// the trace within [t_begin, t_end). `on_occurrence(day, doc)` fires once
/// per qualifying kDocument/kAlias request; `on_pair(day, i, j)` fires once
/// per occurrence of i for each distinct j that follows i within T_w inside
/// the same stride. Exposed (as an inlineable template) so tests and
/// benchmarks can drive reference aggregators over the identical scan.
template <typename OccurrenceFn, typename PairFn>
void ScanDependencies(const trace::Trace& trace,
                      const DependencyConfig& config, SimTime t_begin,
                      SimTime t_end, OccurrenceFn&& on_occurrence,
                      PairFn&& on_pair) {
  const auto by_client = trace::GroupByClient(trace);
  std::vector<SimTime> times;
  std::vector<trace::DocumentId> docs;
  std::vector<trace::DocumentId> seen;
  for (const auto& stream : by_client) {
    times.clear();
    docs.clear();
    for (const uint32_t idx : stream) {
      const auto& r = trace.requests[idx];
      if (r.time < t_begin || r.time >= t_end) continue;
      if (r.kind != trace::RequestKind::kDocument &&
          r.kind != trace::RequestKind::kAlias) {
        continue;
      }
      times.push_back(r.time);
      docs.push_back(r.doc);
    }
    for (size_t a = 0; a < docs.size(); ++a) {
      const uint32_t day = static_cast<uint32_t>(DayOfTime(times[a]));
      on_occurrence(day, docs[a]);
      seen.clear();
      for (size_t b = a + 1; b < docs.size(); ++b) {
        if (times[b] - times[b - 1] >= config.stride_timeout) break;
        if (times[b] - times[a] > config.window) break;
        if (docs[b] == docs[a]) continue;
        if (std::find(seen.begin(), seen.end(), docs[b]) != seen.end()) {
          continue;
        }
        seen.push_back(docs[b]);
        on_pair(day, docs[a], docs[b]);
      }
    }
  }
}

/// \brief Splits the trace into per-day pair/occurrence counts. Day d
/// covers [d * kDay, (d+1) * kDay). Only kDocument/kAlias accesses count.
std::vector<DayCounts> CountDailyDependencies(const trace::Trace& trace,
                                              const DependencyConfig& config);

/// \brief Streaming counterpart of CountDailyDependencies: feed the
/// globally time-ordered request stream once and read each day's counts as
/// soon as it is final, with only O(active clients + retained days)
/// resident state instead of the whole trace.
///
/// A pair is attributed to the day of its *leading* request, so day d can
/// still gain pairs from followers up to T_w seconds past the day
/// boundary; DayFinal(d) becomes true once the ingested stream has moved
/// past (d + 1) * kDay + T_w (or the stream ended). The per-day counts a
/// finalised day yields are the same key -> count multiset the batch scan
/// produces for that day (runs here are sorted by key; batch runs are in
/// first-seen order — every consumer of DayCounts is order-independent).
class DailyDependencyAccumulator {
 public:
  DailyDependencyAccumulator(const DependencyConfig& config,
                             uint32_t num_clients);

  /// Ingests one request (any kind; non-kDocument/kAlias records only
  /// advance the finality clock). Requests must arrive in time order.
  void OnRequest(const trace::Request& r);

  /// Marks the stream exhausted: every day becomes final.
  void FinishStream();

  /// True once day `d` can no longer gain counts.
  bool DayFinal(uint32_t day) const {
    return finished_ ||
           last_time_ >= (static_cast<SimTime>(day) + 1.0) * kDay +
                             config_.window;
  }

  /// The finalised counts of `day` (an empty DayCounts if the day saw no
  /// qualifying traffic). Requires DayFinal(day). The returned pointer
  /// stays valid until DropBefore() passes the day.
  const DayCounts* Counts(uint32_t day);

  /// Releases every retained day strictly before `day`.
  void DropBefore(uint32_t day);

 private:
  /// An in-window request still collecting followers.
  struct Leader {
    SimTime time = 0.0;
    uint32_t day = 0;
    trace::DocumentId doc = trace::kInvalidDocument;
    /// Distinct followers already paired with this leader.
    std::vector<trace::DocumentId> seen;
  };
  struct ClientState {
    SimTime last = 0.0;
    std::vector<Leader> leaders;
  };
  /// Aggregation of a day still inside the finality horizon.
  struct OpenDay {
    std::unordered_map<uint64_t, uint32_t> pairs;
    std::unordered_map<trace::DocumentId, uint32_t> occurrences;
  };

  OpenDay& Open(uint32_t day) { return open_[day]; }

  DependencyConfig config_;
  std::vector<ClientState> clients_;
  SimTime last_time_ = 0.0;
  bool finished_ = false;
  std::map<uint32_t, OpenDay> open_;
  std::map<uint32_t, DayCounts> final_;
};

/// \brief Drives a DailyDependencyAccumulator over a whole cursor and
/// returns the per-day counts, shaped like CountDailyDependencies (same
/// day indexing; runs sorted by key). Convenience for tests and one-shot
/// estimation; the streaming simulator pumps the accumulator lazily
/// instead.
std::vector<DayCounts> CountDailyDependenciesStream(
    trace::RequestCursor* cursor, const DependencyConfig& config);

/// \brief Aggregates day counts over a sliding window and materialises P.
///
/// The simulator adds each finished day and drops days older than
/// HistoryLength; BuildMatrix converts the current window into a pruned
/// SparseProbMatrix. Pair counts live in a flat open-addressing table and
/// occurrences in a dense per-document array.
class WindowedCounts {
 public:
  explicit WindowedCounts(size_t num_docs)
      : num_docs_(num_docs), occurrences_(num_docs, 0) {}

  void Add(const DayCounts& day);
  void Remove(const DayCounts& day);

  /// Single-emission accumulators so scans can feed the window directly
  /// (EstimateDependencies) without materialising intermediate DayCounts.
  void AddOccurrence(trace::DocumentId doc) {
    if (doc >= occurrences_.size()) occurrences_.resize(doc + 1, 0);
    ++occurrences_[doc];
  }
  void AddPair(trace::DocumentId i, trace::DocumentId j) {
    ++pair_counts_[PairKey(i, j)];
    ++total_pairs_;
  }

  /// Builds P from the current window, applying the pruning thresholds.
  SparseProbMatrix BuildMatrix(const DependencyConfig& config) const;

  size_t num_docs() const { return num_docs_; }
  uint64_t total_pairs() const { return total_pairs_; }
  /// Current windowed counts (0 if absent) — exposed for tests.
  int64_t OccurrenceCount(trace::DocumentId doc) const {
    return doc < occurrences_.size() ? occurrences_[doc] : 0;
  }
  int64_t PairCount(trace::DocumentId i, trace::DocumentId j) const {
    const int64_t* n = pair_counts_.Find(PairKey(i, j));
    return n == nullptr ? 0 : *n;
  }

 private:
  size_t num_docs_;
  PairTable<int64_t> pair_counts_;
  std::vector<int64_t> occurrences_;
  uint64_t total_pairs_ = 0;
};

/// \brief One-shot estimation of P over a whole trace interval
/// [t_begin, t_end); convenience wrapper used by analyses and tests.
SparseProbMatrix EstimateDependencies(const trace::Trace& trace,
                                      size_t num_docs,
                                      const DependencyConfig& config,
                                      SimTime t_begin = 0.0,
                                      SimTime t_end = kInfiniteTime);

}  // namespace sds::spec

#endif  // SDS_SPEC_DEPENDENCY_H_
