#include "spec/closure.h"

#include <gtest/gtest.h>

namespace sds::spec {
namespace {

SparseProbMatrix ChainMatrix() {
  // 0 -> 1 (0.8), 1 -> 2 (0.5), 2 -> 3 (0.5), plus 0 -> 2 direct (0.1).
  SparseProbMatrix p(4);
  p.Add(0, 1, 0.8);
  p.Add(1, 2, 0.5);
  p.Add(2, 3, 0.5);
  p.Add(0, 2, 0.1);
  p.SortRows();
  return p;
}

ClosureConfig Config(double min_prob = 0.01) {
  ClosureConfig c;
  c.min_probability = min_prob;
  return c;
}

TEST(ClosureTest, MaxProductPicksBestChain) {
  const auto p = ChainMatrix();
  const auto row = ComputeClosureRow(p, 0, Config());
  // p*(0,1) = 0.8; p*(0,2) = max(0.1, 0.8*0.5) = 0.4; p*(0,3) = 0.4*0.5.
  double p01 = 0.0, p02 = 0.0, p03 = 0.0;
  for (const auto& e : row) {
    if (e.doc == 1) p01 = e.probability;
    if (e.doc == 2) p02 = e.probability;
    if (e.doc == 3) p03 = e.probability;
  }
  EXPECT_NEAR(p01, 0.8, 1e-6);
  EXPECT_NEAR(p02, 0.4, 1e-6);
  EXPECT_NEAR(p03, 0.2, 1e-6);
}

TEST(ClosureTest, ClosureDominatesDirectEdges) {
  const auto p = ChainMatrix();
  const auto closure = ComputeClosure(p, Config());
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    for (const auto& e : p.Row(i)) {
      EXPECT_GE(closure.Get(i, e.doc) + 1e-6, e.probability);
    }
  }
}

TEST(ClosureTest, MinProbabilityPrunesChains) {
  const auto p = ChainMatrix();
  const auto row = ComputeClosureRow(p, 0, Config(0.3));
  for (const auto& e : row) {
    EXPECT_GE(e.probability, 0.3f);
    EXPECT_NE(e.doc, 3u);  // 0.2 pruned
  }
}

TEST(ClosureTest, MaxDepthLimitsChainLength) {
  ClosureConfig config = Config();
  config.max_depth = 1;
  const auto p = ChainMatrix();
  const auto row = ComputeClosureRow(p, 0, config);
  // Depth 1: only direct successors.
  for (const auto& e : row) {
    EXPECT_TRUE(e.doc == 1 || e.doc == 2);
    if (e.doc == 2) {
      EXPECT_NEAR(e.probability, 0.1, 1e-6);
    }
  }
}

TEST(ClosureTest, CycleTerminates) {
  SparseProbMatrix p(2);
  p.Add(0, 1, 0.9);
  p.Add(1, 0, 0.9);
  p.SortRows();
  const auto row = ComputeClosureRow(p, 0, Config());
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].doc, 1u);
  EXPECT_NEAR(row[0].probability, 0.9, 1e-6);
}

TEST(ClosureTest, SourceNeverInOwnRow) {
  const auto p = ChainMatrix();
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    for (const auto& e : ComputeClosureRow(p, i, Config())) {
      EXPECT_NE(e.doc, i);
    }
  }
}

TEST(ClosureTest, RowsSortedDescending) {
  const auto p = ChainMatrix();
  const auto row = ComputeClosureRow(p, 0, Config());
  for (size_t i = 1; i < row.size(); ++i) {
    EXPECT_GE(row[i - 1].probability, row[i].probability);
  }
}

TEST(ClosureTest, SumProductAddsParallelPaths) {
  // Two disjoint 0 -> 2 paths of probability 0.3 each: max-product gives
  // 0.3, sum-product gives 0.51 (1 - (1-0.3)^2 would be noisy-or; plain
  // sum gives 0.6 capped... our sum-product literally adds: 0.3 + 0.3).
  SparseProbMatrix p(4);
  p.Add(0, 1, 0.6);
  p.Add(1, 3, 0.5);
  p.Add(0, 2, 0.6);
  p.Add(2, 3, 0.5);
  p.SortRows();
  ClosureConfig max_config = Config();
  const auto max_row = ComputeClosureRow(p, 0, max_config);
  ClosureConfig sum_config = Config();
  sum_config.semantics = ClosureSemantics::kSumProductCapped;
  const auto sum_row = ComputeClosureRow(p, 0, sum_config);
  double max_p3 = 0.0, sum_p3 = 0.0;
  for (const auto& e : max_row) {
    if (e.doc == 3) max_p3 = e.probability;
  }
  for (const auto& e : sum_row) {
    if (e.doc == 3) sum_p3 = e.probability;
  }
  EXPECT_NEAR(max_p3, 0.3, 1e-6);
  EXPECT_NEAR(sum_p3, 0.6, 1e-6);
}

TEST(ClosureTest, SumProductCapsAtOne) {
  SparseProbMatrix p(3);
  p.Add(0, 1, 1.0);
  p.Add(1, 2, 1.0);
  p.Add(0, 2, 1.0);
  p.SortRows();
  ClosureConfig config = Config();
  config.semantics = ClosureSemantics::kSumProductCapped;
  for (const auto& e : ComputeClosureRow(p, 0, config)) {
    EXPECT_LE(e.probability, 1.0f);
  }
}

TEST(ClosureCacheTest, CachesAndResets) {
  const auto p = ChainMatrix();
  ClosureCache cache(&p, Config());
  const auto& row1 = cache.Row(0);
  EXPECT_FALSE(row1.empty());
  EXPECT_EQ(cache.CachedRows(), 1u);
  cache.Row(0);
  EXPECT_EQ(cache.CachedRows(), 1u);  // cached, not recomputed

  SparseProbMatrix empty(4);
  cache.Reset(&empty);
  EXPECT_EQ(cache.CachedRows(), 0u);
  EXPECT_TRUE(cache.Row(0).empty());
}

TEST(ClosureCacheTest, RowsComputedCountsAcrossResets) {
  const auto p = ChainMatrix();
  ClosureCache cache(&p, Config());
  cache.Row(0);
  cache.Row(0);
  cache.Row(1);
  EXPECT_EQ(cache.RowsComputed(), 2u);
  cache.Reset(&p);
  EXPECT_EQ(cache.CachedRows(), 0u);
  EXPECT_EQ(cache.RowsComputed(), 2u);
  cache.Row(0);
  EXPECT_EQ(cache.RowsComputed(), 3u);
}

TEST(ClosureTest, EmptyMatrix) {
  SparseProbMatrix p(5);
  const auto closure = ComputeClosure(p, Config());
  EXPECT_EQ(closure.NumEntries(), 0u);
}

TEST(ClosureTest, FullClosureMatchesPerRow) {
  const auto p = ChainMatrix();
  const auto closure = ComputeClosure(p, Config());
  for (trace::DocumentId i = 0; i < p.num_docs(); ++i) {
    const auto row = ComputeClosureRow(p, i, Config());
    ASSERT_EQ(closure.Row(i).size(), row.size());
    for (size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(closure.Row(i)[k].doc, row[k].doc);
      EXPECT_FLOAT_EQ(closure.Row(i)[k].probability, row[k].probability);
    }
  }
}

}  // namespace
}  // namespace sds::spec
