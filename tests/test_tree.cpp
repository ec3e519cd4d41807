// Tests for the weighted free tree type.
#include "graph/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace tgp::graph {
namespace {

Tree small_tree() {
  // Root 0 with children 1 and 2; node 1 has leaves 3 and 4.
  return Tree::from_edges({5, 4, 3, 2, 1},
                          {{0, 1, 10}, {0, 2, 20}, {1, 3, 30}, {1, 4, 40}});
}

TEST(Tree, BasicAccessors) {
  Tree t = small_tree();
  EXPECT_EQ(t.n(), 5);
  EXPECT_EQ(t.edge_count(), 4);
  EXPECT_DOUBLE_EQ(t.vertex_weight(0), 5);
  EXPECT_DOUBLE_EQ(t.total_vertex_weight(), 15);
  EXPECT_DOUBLE_EQ(t.max_vertex_weight(), 5);
  EXPECT_EQ(t.degree(0), 2);
  EXPECT_EQ(t.degree(1), 3);
  EXPECT_TRUE(t.is_leaf(3));
  EXPECT_FALSE(t.is_leaf(1));
}

TEST(Tree, LeavesAreExactlyDegreeOneVertices) {
  Tree t = small_tree();
  auto lv = t.leaves();
  std::sort(lv.begin(), lv.end());
  EXPECT_EQ(lv, (std::vector<int>{2, 3, 4}));
}

TEST(Tree, SingleVertexIsItsOwnLeaf) {
  Tree t = Tree::from_edges({7}, {});
  EXPECT_EQ(t.n(), 1);
  EXPECT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.leaves(), std::vector<int>{0});
}

TEST(Tree, FromEdgesRejectsDisconnected) {
  // 4 vertices, 3 edges, but one edge duplicated => cycle + isolated.
  EXPECT_THROW(
      Tree::from_edges({1, 1, 1, 1}, {{0, 1, 1}, {1, 0, 1}, {2, 3, 1}}),
      std::invalid_argument);
}

TEST(Tree, FromEdgesRejectsWrongEdgeCount) {
  EXPECT_THROW(Tree::from_edges({1, 1, 1}, {{0, 1, 1}}),
               std::invalid_argument);
}

TEST(Tree, FromEdgesRejectsSelfLoopAndBadWeights) {
  EXPECT_THROW(Tree::from_edges({1, 1}, {{0, 0, 1}}), std::invalid_argument);
  EXPECT_THROW(Tree::from_edges({1, 1}, {{0, 1, 0}}), std::invalid_argument);
  EXPECT_THROW(Tree::from_edges({1, -1}, {{0, 1, 1}}),
               std::invalid_argument);
}

TEST(Tree, FromParentsBuildsExpectedShape) {
  Tree t = Tree::from_parents({1, 2, 3}, {-1, 0, 1}, {0, 5, 6});
  EXPECT_EQ(t.n(), 3);
  EXPECT_EQ(t.degree(1), 2);
  // Edge weights preserved.
  double w01 = 0, w12 = 0;
  for (const auto& e : t.edges()) {
    if ((e.u == 0 && e.v == 1) || (e.u == 1 && e.v == 0)) w01 = e.weight;
    if ((e.u == 1 && e.v == 2) || (e.u == 2 && e.v == 1)) w12 = e.weight;
  }
  EXPECT_DOUBLE_EQ(w01, 5);
  EXPECT_DOUBLE_EQ(w12, 6);
}

TEST(Tree, FromParentsRejectsForwardParent) {
  EXPECT_THROW(Tree::from_parents({1, 2}, {-1, 1}, {0, 1}),
               std::invalid_argument);
}

TEST(Tree, BfsOrderVisitsAllOnceParentFirst) {
  Tree t = small_tree();
  auto order = t.bfs_order(0);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 0);
  std::vector<int> pos(5);
  for (int i = 0; i < 5; ++i) pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  // Parent precedes child for the natural rooting at 0.
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[1], pos[4]);
}

TEST(Tree, RootAtProducesConsistentParents) {
  Tree t = small_tree();
  std::vector<int> parent, pedge;
  t.root_at(1, parent, pedge);
  EXPECT_EQ(parent[1], -1);
  EXPECT_EQ(parent[0], 1);
  EXPECT_EQ(parent[3], 1);
  EXPECT_EQ(parent[4], 1);
  EXPECT_EQ(parent[2], 0);
  // Parent edges reference real edges joining child and parent.
  for (int v = 0; v < 5; ++v) {
    if (parent[static_cast<std::size_t>(v)] == -1) continue;
    const TreeEdge& e = t.edge(pedge[static_cast<std::size_t>(v)]);
    bool matches = (e.u == v && e.v == parent[static_cast<std::size_t>(v)]) ||
                   (e.v == v && e.u == parent[static_cast<std::size_t>(v)]);
    EXPECT_TRUE(matches);
  }
}

TEST(Tree, NeighborsListsEdgeIndices) {
  Tree t = small_tree();
  for (int v = 0; v < t.n(); ++v) {
    for (auto [u, e] : t.neighbors(v)) {
      const TreeEdge& edge = t.edge(e);
      EXPECT_TRUE((edge.u == v && edge.v == u) ||
                  (edge.v == v && edge.u == u));
    }
  }
}

// Every way of building a tree records its largest vertex weight, with
// the heaviest vertex first, inside and last in the submitted numbering.
TEST(Tree, MaxVertexWeightRecordedAtBuild) {
  util::Pcg32 rng(0x3A7u);
  constexpr int n = 9;
  constexpr Weight kHeavy = 100.5;
  for (int heavy : {0, 4, n - 1}) {
    std::vector<Weight> vw;
    for (int v = 0; v < n; ++v) vw.push_back(1.0 + 0.5 * ((5 * v) % n));
    vw[static_cast<std::size_t>(heavy)] = kHeavy;
    std::vector<TreeEdge> path_edges;
    std::vector<int> parent{-1};
    std::vector<Weight> parent_weight{0};
    for (int v = 1; v < n; ++v) {
      path_edges.push_back({v - 1, v, 2.0 + v});
      parent.push_back((v - 1) / 2);
      parent_weight.push_back(3.0 + v);
    }
    Chain chain;
    chain.vertex_weight = vw;
    chain.edge_weight.assign(n - 1, 1.0);
    const Tree built = Tree::from_edges(vw, path_edges);
    const Tree heap = Tree::from_parents(vw, parent, parent_weight);
    const Tree trees[] = {built,
                          heap,
                          relabel_tree(rng, heap),
                          path_tree(chain),
                          canonical_tree(heap).tree};
    for (const Tree& t : trees) {
      EXPECT_EQ(t.max_vertex_weight(), kHeavy) << "heaviest vertex " << heavy;
      EXPECT_EQ(t.max_vertex_weight(),
                *std::max_element(t.vertex_weights().begin(),
                                  t.vertex_weights().end()));
    }
  }
}

TEST(Tree, OutOfRangeAccessThrows) {
  Tree t = small_tree();
  EXPECT_THROW(t.vertex_weight(5), std::invalid_argument);
  EXPECT_THROW(t.edge(4), std::invalid_argument);
  EXPECT_THROW(t.neighbors(-1), std::invalid_argument);
  EXPECT_THROW(t.bfs_order(9), std::invalid_argument);
}

}  // namespace
}  // namespace tgp::graph
