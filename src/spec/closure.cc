#include "spec/closure.h"

#include <algorithm>

namespace sds::spec {
namespace {

void SortByProbability(std::vector<SparseProbMatrix::Entry>* out) {
  std::sort(out->begin(), out->end(),
            [](const SparseProbMatrix::Entry& a,
               const SparseProbMatrix::Entry& b) {
              if (a.probability != b.probability)
                return a.probability > b.probability;
              return a.doc < b.doc;
            });
}

std::vector<SparseProbMatrix::Entry> MaxProductRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config, ClosureScratch& s) {
  // Best-first search: edge weights are probabilities in (0, 1], so the
  // first time a node is popped its chain probability is maximal
  // (Dijkstra in -log space without the logs). `best` is a dense
  // epoch-stamped array; the heap reuses the scratch vector with
  // push_heap/pop_heap, matching std::priority_queue pop order exactly.
  s.Prepare(std::max(p.num_docs(), static_cast<size_t>(source) + 1));
  const uint32_t epoch = s.epoch;
  auto& heap = s.heap;
  heap.push_back({1.0, 0, source});
  s.best[source] = 1.0;
  s.stamp[source] = epoch;
  uint32_t expansions = 0;

  std::vector<SparseProbMatrix::Entry> out;
  while (!heap.empty() && expansions < config.max_expansions) {
    std::pop_heap(heap.begin(), heap.end());
    const ClosureScratch::HeapItem item = heap.back();
    heap.pop_back();
    if (item.prob < s.best[item.doc]) continue;  // stale entry
    ++expansions;
    if (item.doc != source) {
      out.push_back({item.doc, static_cast<float>(item.prob)});
    }
    if (item.depth >= config.max_depth) continue;
    if (item.doc >= p.num_docs()) continue;
    for (const auto& e : p.Row(item.doc)) {
      const double cand = item.prob * e.probability;
      if (cand < config.min_probability) break;  // rows sorted descending
      if (s.stamp[e.doc] == epoch) {
        if (cand <= s.best[e.doc]) continue;
      } else {
        s.stamp[e.doc] = epoch;
      }
      s.best[e.doc] = cand;
      heap.push_back({cand, item.depth + 1, e.doc});
      std::push_heap(heap.begin(), heap.end());
    }
  }
  // Out is produced in pop order == descending probability already; sort
  // for deterministic tie order.
  SortByProbability(&out);
  return out;
}

std::vector<SparseProbMatrix::Entry> SumProductRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config, ClosureScratch& s) {
  s.Prepare(std::max(p.num_docs(), static_cast<size_t>(source) + 1));
  const uint32_t epoch = s.epoch;
  s.frontier.push_back({source, 1.0});
  for (uint32_t depth = 0; depth < config.max_depth && !s.frontier.empty();
       ++depth) {
    s.events.clear();
    for (const auto& [doc, mass] : s.frontier) {
      if (doc >= p.num_docs()) continue;
      for (const auto& e : p.Row(doc)) {
        const double add = mass * e.probability;
        if (add < config.min_probability * 0.1) break;  // sorted rows
        s.events.push_back({e.doc, add});
      }
    }
    // Merge the expansion events into the next frontier in ascending doc
    // order: a fixed summation order keeps the floating-point result
    // deterministic, unlike hash-map iteration.
    std::sort(s.events.begin(), s.events.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    s.frontier.clear();
    for (size_t i = 0; i < s.events.size();) {
      const trace::DocumentId doc = s.events[i].first;
      double mass = 0.0;
      for (; i < s.events.size() && s.events[i].first == doc; ++i) {
        mass += s.events[i].second;
      }
      s.frontier.push_back({doc, mass});
      if (doc != source) {
        if (s.total_stamp[doc] != epoch) {
          s.total_stamp[doc] = epoch;
          s.total[doc] = 0.0;
          s.touched.push_back(doc);
        }
        s.total[doc] += mass;
      }
    }
    if (s.touched.size() > config.max_expansions) break;
  }
  std::vector<SparseProbMatrix::Entry> out;
  out.reserve(s.touched.size());
  for (const trace::DocumentId doc : s.touched) {
    const double prob = std::min(1.0, s.total[doc]);
    if (prob >= config.min_probability) {
      out.push_back({doc, static_cast<float>(prob)});
    }
  }
  SortByProbability(&out);
  return out;
}

}  // namespace

void ClosureScratch::Prepare(size_t num_docs) {
  if (best.size() < num_docs) {
    best.resize(num_docs, 0.0);
    stamp.resize(num_docs, 0);
    total.resize(num_docs, 0.0);
    total_stamp.resize(num_docs, 0);
  }
  if (++epoch == 0) {
    // Epoch wrapped: clear the stamps so stale entries cannot alias.
    std::fill(stamp.begin(), stamp.end(), 0u);
    std::fill(total_stamp.begin(), total_stamp.end(), 0u);
    epoch = 1;
  }
  heap.clear();
  frontier.clear();
  events.clear();
  touched.clear();
}

std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config, ClosureScratch* scratch) {
  switch (config.semantics) {
    case ClosureSemantics::kMaxProduct:
      return MaxProductRow(p, source, config, *scratch);
    case ClosureSemantics::kSumProductCapped:
      return SumProductRow(p, source, config, *scratch);
  }
  return {};
}

std::vector<SparseProbMatrix::Entry> ComputeClosureRow(
    const SparseProbMatrix& p, trace::DocumentId source,
    const ClosureConfig& config) {
  ClosureScratch scratch;
  return ComputeClosureRow(p, source, config, &scratch);
}

SparseProbMatrix ComputeClosure(const SparseProbMatrix& p,
                                const ClosureConfig& config) {
  SparseProbMatrix closure(p.num_docs());
  ClosureScratch scratch;
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    if (p.Row(i).empty()) continue;
    for (const auto& e : ComputeClosureRow(p, i, config, &scratch)) {
      closure.Add(i, e.doc, e.probability);
    }
  }
  closure.SortRows();
  return closure;
}

SparseProbMatrix::RowView ClosureCache::Row(trace::DocumentId doc) {
  if (doc >= rows_.size()) {
    rows_.resize(std::max(p_->num_docs(), static_cast<size_t>(doc) + 1));
  }
  auto& row = rows_[doc];
  if (row == nullptr) {
    row = std::make_unique<std::vector<SparseProbMatrix::Entry>>(
        ComputeClosureRow(*p_, doc, config_, &scratch_));
    ++cached_;
    ++rows_computed_;
  }
  return SparseProbMatrix::RowView(row->data(), row->size());
}

void ClosureCache::Reset(const SparseProbMatrix* p) {
  p_ = p;
  for (auto& row : rows_) row.reset();
  cached_ = 0;
}

}  // namespace sds::spec
