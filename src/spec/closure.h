#ifndef SDS_SPEC_CLOSURE_H_
#define SDS_SPEC_CLOSURE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "spec/dependency.h"

namespace sds::spec {

/// \brief Interpretation of the paper's closure P* = P^N.
///
/// The paper's formula is under-specified (a literal stochastic power is
/// neither a per-pair probability nor bounded by 1), so we provide the two
/// standard readings of "probability of a request chain from D_i to D_j":
enum class ClosureSemantics : uint8_t {
  /// p*[i,j] = max over chains of the product of edge probabilities (the
  /// probability of the single most likely chain). Default.
  kMaxProduct = 0,
  /// Depth-limited sum-product with a cap at 1: probabilities of distinct
  /// chains add up (a literal reading of P^N, capped to stay a
  /// probability).
  kSumProductCapped = 1,
};

struct ClosureConfig {
  ClosureSemantics semantics = ClosureSemantics::kMaxProduct;
  /// Chains with probability below this are pruned; also the floor of
  /// emitted entries. Must be > 0 for termination.
  double min_probability = 0.02;
  /// Maximum chain length in edges (the paper's N is the document count;
  /// pruning makes long chains vanish far earlier in practice).
  uint32_t max_depth = 8;
  /// Safety cap on expanded nodes per source row.
  uint32_t max_expansions = 4096;
};

/// \brief Reusable dense scratch for closure-row computation: per-document
/// accumulators are flat arrays invalidated in O(1) by bumping an epoch
/// stamp, so computing a row allocates nothing and touches no hash map.
/// One scratch serves any number of sequential row computations; it is not
/// thread-safe (each ClosureCache owns its own).
class ClosureScratch {
 public:
  struct HeapItem {
    double prob;
    uint32_t depth;
    trace::DocumentId doc;
    bool operator<(const HeapItem& other) const { return prob < other.prob; }
  };

  /// Grows the arrays to cover `num_docs` documents and starts a new row
  /// (old entries are invalidated by the epoch bump, not cleared).
  void Prepare(size_t num_docs);

  uint32_t epoch = 0;
  /// Best chain probability per doc (max-product), stamped by `stamp`.
  std::vector<double> best;
  std::vector<uint32_t> stamp;
  /// Accumulated chain mass per doc (sum-product), stamped separately.
  std::vector<double> total;
  std::vector<uint32_t> total_stamp;
  /// Binary heap storage (std::push_heap/pop_heap — the same algorithms
  /// std::priority_queue uses, so pop order is bit-identical to it).
  std::vector<HeapItem> heap;
  /// Sum-product frontier and per-depth expansion events.
  std::vector<std::pair<trace::DocumentId, double>> frontier;
  std::vector<std::pair<trace::DocumentId, double>> events;
  /// Docs with accumulated mass this row, in first-touch order.
  std::vector<trace::DocumentId> touched;
};

/// \brief Computes the full closure P* of P (every row). For large
/// matrices prefer ClosureCache, which computes rows lazily.
SparseProbMatrix ComputeClosure(const SparseProbMatrix& p,
                                const ClosureConfig& config);

/// \brief Lazy per-row closure: rows are computed on first use and cached
/// until Reset(). The speculation simulator re-estimates P every
/// UpdateCycle days and only ever needs rows for documents actually
/// requested, so lazy evaluation is far cheaper than the full closure.
class ClosureCache {
 public:
  ClosureCache(const SparseProbMatrix* p, const ClosureConfig& config)
      : p_(p), config_(config) {}

  /// The closure row of `doc`, sorted by descending probability. The view
  /// is valid until Reset().
  SparseProbMatrix::RowView Row(trace::DocumentId doc);

  /// Points the cache at a freshly estimated P and drops all cached rows.
  void Reset(const SparseProbMatrix* p);

  size_t CachedRows() const { return cached_; }
  /// Rows computed since construction, across every Reset().
  uint64_t RowsComputed() const { return rows_computed_; }

 private:
  const SparseProbMatrix* p_;
  ClosureConfig config_;
  ClosureScratch scratch_;
  /// Cached rows indexed by doc; unique_ptr keeps each row's storage
  /// stable while the outer vector grows, so returned views survive
  /// further Row() calls.
  std::vector<std::unique_ptr<std::vector<SparseProbMatrix::Entry>>> rows_;
  size_t cached_ = 0;
  uint64_t rows_computed_ = 0;
};

/// \brief Computes one closure row (exposed for tests). The overload with
/// a scratch reuses its buffers across calls.
std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config);
std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config, ClosureScratch* scratch);

}  // namespace sds::spec

#endif  // SDS_SPEC_CLOSURE_H_
