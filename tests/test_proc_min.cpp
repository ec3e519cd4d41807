// Tests for processor minimization (Algorithm 2.2) and the §2.2 pipeline.
#include "core/proc_min.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/bottleneck_min.hpp"
#include "graph/cutset.hpp"
#include "graph/generators.hpp"
#include "reference_impl.hpp"
#include "util/rng.hpp"

namespace tgp::core {
namespace {

TEST(ProcMin, SingleVertexNeedsOneProcessor) {
  auto t = graph::Tree::from_edges({3}, {});
  auto r = proc_min(t, 3);
  EXPECT_TRUE(r.cut.empty());
  EXPECT_EQ(r.components, 1);
}

TEST(ProcMin, WholeTreeFitsInOneComponent) {
  auto t = graph::Tree::from_edges({1, 2, 3}, {{0, 1, 1}, {1, 2, 1}});
  auto r = proc_min(t, 6);
  EXPECT_TRUE(r.cut.empty());
  EXPECT_EQ(r.components, 1);
}

TEST(ProcMin, StarPrunesHeaviestLeavesFirst) {
  // Paper §2.2: star with center 0 (weight 1) and leaves 9, 5, 3, 2.
  // K = 11: keep {1,5,3,2}=11, prune the single heaviest leaf (9).
  auto t = graph::Tree::from_edges(
      {1, 9, 5, 3, 2},
      {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1}});
  auto r = proc_min(t, 11);
  EXPECT_EQ(r.components, 2);
  ASSERT_EQ(r.cut.size(), 1);
  // The cut edge must be the one to the weight-9 leaf (edge 0).
  EXPECT_EQ(r.cut.edges[0], 0);
}

TEST(ProcMin, Figure1StyleExample) {
  // A two-level tree needing cuts at two different internal nodes:
  // root 0(2) with children 1(2), 2(2); node 1 has leaves 3(6), 4(5);
  // node 2 has leaves 5(6), 6(5).
  auto t = graph::Tree::from_edges(
      {2, 2, 2, 6, 5, 6, 5},
      {{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {1, 4, 1}, {2, 5, 1}, {2, 6, 1}});
  // K = 9: each internal node can keep one child; total 28 needs >= 4
  // components of <= 9 ... optimal is 4: {3},{5},{1,4,0?}...
  auto r = proc_min(t, 9);
  EXPECT_TRUE(graph::tree_cut_feasible(t, r.cut, 9));
  auto oracle = proc_min_oracle(t, 9);
  EXPECT_EQ(r.components, oracle.components);
}

TEST(ProcMin, FeasibleAndMatchesOracleOnRandomTrees) {
  util::Pcg32 rng(2024);
  for (int trial = 0; trial < 80; ++trial) {
    int n = static_cast<int>(rng.uniform_int(2, 14));
    graph::Tree t =
        graph::random_tree(rng, n, graph::WeightDist::uniform(1, 9),
                           graph::WeightDist::uniform(1, 9));
    double K = t.max_vertex_weight() +
               rng.uniform_real(0.0, t.total_vertex_weight());
    auto greedy = proc_min(t, K);
    auto oracle = proc_min_oracle(t, K);
    EXPECT_TRUE(graph::tree_cut_feasible(t, greedy.cut, K));
    EXPECT_EQ(greedy.components, oracle.components)
        << "trial " << trial << " n=" << n << " K=" << K;
  }
}

TEST(ProcMin, MatchesOracleOnStructuredTrees) {
  util::Pcg32 rng(77);
  auto vd = graph::WeightDist::uniform(1, 9);
  auto ed = graph::WeightDist::uniform(1, 9);
  std::vector<graph::Tree> shapes;
  shapes.push_back(graph::star_tree(rng, 10, vd, ed));
  shapes.push_back(graph::caterpillar_tree(rng, 4, 2, vd, ed));
  shapes.push_back(graph::kary_tree(rng, 2, 4, vd, ed));
  shapes.push_back(graph::random_binary_tree(rng, 12, vd, ed));
  for (const auto& t : shapes) {
    for (double frac : {0.15, 0.3, 0.6}) {
      double K = std::max(t.max_vertex_weight(),
                          frac * t.total_vertex_weight());
      auto greedy = proc_min(t, K);
      auto oracle = proc_min_oracle(t, K);
      EXPECT_EQ(greedy.components, oracle.components);
    }
  }
}

TEST(ProcMin, ComponentCountMonotoneInK) {
  util::Pcg32 rng(3);
  graph::Tree t =
      graph::random_tree(rng, 200, graph::WeightDist::uniform(1, 9),
                         graph::WeightDist::uniform(1, 9));
  int prev = t.n() + 1;
  for (double K = t.max_vertex_weight(); K <= t.total_vertex_weight();
       K *= 1.4) {
    auto r = proc_min(t, K);
    EXPECT_LE(r.components, prev);
    prev = r.components;
  }
}

TEST(ProcMin, LowerBoundTotalOverK) {
  // components >= ceil(total / K) always.
  util::Pcg32 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    graph::Tree t =
        graph::random_tree(rng, 100, graph::WeightDist::uniform(1, 9),
                           graph::WeightDist::uniform(1, 9));
    double K = t.max_vertex_weight() + trial;
    auto r = proc_min(t, K);
    EXPECT_GE(r.components,
              static_cast<int>(std::ceil(t.total_vertex_weight() / K)));
  }
}

TEST(ProcMin, RejectsKBelowMaxVertexWeight) {
  auto t = graph::Tree::from_edges({1, 9}, {{0, 1, 1}});
  EXPECT_THROW(proc_min(t, 8), std::invalid_argument);
  EXPECT_THROW(proc_min_oracle(t, 8), std::invalid_argument);
}

// The tree of examples/proc_min_walkthrough.cpp: root 0(2) with internal
// children 1(3) and 2(1); leaves 3(7), 4(5), 5(2) under 1 and 6(6), 7(4),
// 8(4) under 2.
graph::Tree walkthrough_tree() {
  return graph::Tree::from_edges(
      {2, 3, 1, 7, 5, 2, 6, 4, 4},
      {{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {1, 4, 1}, {1, 5, 1},
       {2, 6, 1}, {2, 7, 1}, {2, 8, 1}});
}

struct PinnedStep {
  int vertex;
  graph::Weight lump;
  std::vector<int> pruned_children;
  graph::Weight residual;
};

void expect_steps(const std::vector<ProcMinStep>& got,
                  const std::vector<PinnedStep>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].vertex, want[i].vertex);
    EXPECT_EQ(got[i].lump, want[i].lump);
    EXPECT_EQ(got[i].pruned_children, want[i].pruned_children);
    EXPECT_EQ(got[i].residual, want[i].residual);
  }
}

// Steps in processing order, internal vertices only, pruned children
// heaviest first.  At K = 7 leaves 7 and 8 tie, and so do children 1 and
// 2 of the root; the pinned order is the solver's tie-break.
TEST(ProcMinTrace, WalkthroughStepsArePinned) {
  const graph::Tree t = walkthrough_tree();
  std::vector<ProcMinStep> trace;
  ProcMinResult r = proc_min(t, 12, &trace);
  expect_steps(trace, {{2, 15, {6}, 9}, {1, 17, {3}, 10}, {0, 21, {1}, 11}});
  EXPECT_EQ(r.components, 4);
  r = proc_min(t, 7, &trace);
  expect_steps(trace, {{2, 15, {6, 7}, 5}, {1, 17, {3, 4}, 5},
                       {0, 12, {1}, 7}});
  EXPECT_EQ(r.components, 6);
}

// On a randomly renumbered tree, the trace still speaks of submitted
// vertices: every pruned child hangs off its step's vertex, and the edges
// above the pruned children are exactly the returned cut.
TEST(ProcMinTrace, PrunedChildrenOfARelabelledTreeFormTheCut) {
  util::Pcg32 rng(0x7ACEu);
  const graph::Tree t = graph::relabel_tree(
      rng, graph::random_tree(rng, 3000, graph::WeightDist::uniform(1, 50),
                              graph::WeightDist::uniform(1, 100)));
  const double K = t.max_vertex_weight() +
                   0.01 * (t.total_vertex_weight() - t.max_vertex_weight());
  std::vector<ProcMinStep> trace;
  const ProcMinResult r = proc_min(t, K, &trace);
  std::vector<int> parent, parent_edge;
  t.root_at(0, parent, parent_edge);
  std::vector<int> edges;
  for (const ProcMinStep& step : trace) {
    for (int c : step.pruned_children) {
      ASSERT_EQ(parent[static_cast<std::size_t>(c)], step.vertex)
          << "child " << c;
      edges.push_back(parent_edge[static_cast<std::size_t>(c)]);
    }
  }
  std::sort(edges.begin(), edges.end());
  EXPECT_GT(edges.size(), 10u);
  EXPECT_EQ(edges, r.cut.edges);
}

TEST(Pipeline, BottleneckThenProcMinKeepsBothGuarantees) {
  util::Pcg32 rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    int n = static_cast<int>(rng.uniform_int(2, 80));
    graph::Tree t =
        graph::random_tree(rng, n, graph::WeightDist::uniform(1, 9),
                           graph::WeightDist::uniform(1, 50));
    double K = t.max_vertex_weight() +
               rng.uniform_real(0.0, t.total_vertex_weight() / 2);
    auto stage1 = bottleneck_min_bsearch(t, K);
    auto r = bottleneck_then_proc_min(t, K);
    EXPECT_TRUE(graph::tree_cut_feasible(t, r.cut, K));
    // Final bottleneck never exceeds stage-1 threshold (cut is a subset).
    EXPECT_LE(graph::tree_cut_max_edge(t, r.cut), stage1.threshold + 1e-12);
    EXPECT_DOUBLE_EQ(r.bottleneck, stage1.threshold);
    // Never more components than the raw bottleneck cut produced.
    EXPECT_LE(r.components, stage1.cut.size() + 1);
    EXPECT_EQ(r.components, r.cut.size() + 1);
  }
}

TEST(Pipeline, ProcMinReducesFragmentation) {
  // A tree where the bottleneck stage fragments aggressively (many light
  // edges) but few components are actually needed.
  auto t = graph::Tree::from_edges(
      {1, 1, 1, 1, 1, 1},
      {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1}});
  // K=3: bottleneck threshold is 1 (all edges weight 1, must cut at least
  // one).  The scan cut includes all edges (all weight <= threshold),
  // fragmenting into 6 parts; proc_min needs only 2.
  auto r = bottleneck_then_proc_min(t, 3);
  EXPECT_EQ(r.components, 2);
}

TEST(Pipeline, DecimalSuperNodeWithinToleranceIsAccepted) {
  // 0.1 + 0.2 rounds to 0.30000000000000004: stage 1 keeps {0,1} inside
  // the checker's K + eps, so stage 2 sees a super-node just above K.
  auto t = graph::Tree::from_edges({0.1, 0.2, 0.3}, {{0, 1, 2}, {1, 2, 1}});
  auto r = bottleneck_then_proc_min(t, 0.3);
  EXPECT_EQ(r.cut.edges, std::vector<int>{1});
  EXPECT_EQ(r.bottleneck, 1);
  EXPECT_EQ(r.components, 2);
}

/// A K ≥ max w whose checker limit K + eps rounds to exactly `limit`, or
/// −1 when no such K exists (as in test_csr_differential.cpp).
graph::Weight k_with_limit(const graph::Tree& t, graph::Weight limit) {
  const graph::Weight eps =
      graph::load_epsilon(t.total_vertex_weight(), t.n());
  const graph::Weight inf = std::numeric_limits<graph::Weight>::infinity();
  graph::Weight K = limit - eps;
  while (K + eps > limit) K = std::nextafter(K, -inf);
  while (K + eps < limit) K = std::nextafter(K, inf);
  return K + eps == limit && K >= t.max_vertex_weight() ? K : -1;
}

// Limits aimed at every component weight some prefix of the edge order
// leaves, and at the doubles either side of it, so stage-1 components
// land on K + eps from above and below.
TEST(Pipeline, DecimalWeightsAtRoundingBoundariesStayFeasible) {
  const graph::Weight inf = std::numeric_limits<graph::Weight>::infinity();
  int aimed = 0;
  for (unsigned seed = 1; seed <= 30; ++seed) {
    util::Pcg32 rng(0xB0DEu ^ (seed * 2654435761u));
    const int n = 3 + static_cast<int>(seed % 8);
    const graph::Tree shape =
        graph::random_tree(rng, n, graph::WeightDist::constant(1),
                           graph::WeightDist::uniform(1, 20));
    std::vector<graph::Weight> vw;
    for (int v = 0; v < n; ++v)
      vw.push_back(0.1 * static_cast<double>(rng.uniform_int(1, 9)));
    const graph::Tree t = graph::Tree::from_edges(vw, shape.edges());
    graph::Cut prefix;
    for (int e : ref::detail::edges_by_weight(t)) {
      prefix.edges.push_back(e);
      for (graph::Weight w : graph::tree_component_weights(t, prefix)) {
        graph::Weight limit = w;
        for (int s = 0; s < 3; ++s) limit = std::nextafter(limit, -inf);
        for (int s = 0; s < 7; ++s, limit = std::nextafter(limit, inf)) {
          const graph::Weight K = k_with_limit(t, limit);
          if (K < 0) continue;
          ++aimed;
          TreePartitionResult r;
          ASSERT_NO_THROW(r = bottleneck_then_proc_min(t, K))
              << "seed " << seed << " K " << K;
          EXPECT_TRUE(graph::tree_cut_feasible(t, r.cut, K))
              << "seed " << seed << " K " << K;
          EXPECT_EQ(r.bottleneck, bottleneck_min_bsearch(t, K).threshold);
        }
      }
    }
  }
  EXPECT_GT(aimed, 1000);
}

}  // namespace
}  // namespace tgp::core
