#include "graph/tree.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "graph/fingerprint.hpp"
#include "util/assert.hpp"

namespace tgp::graph {

Tree Tree::from_edges(std::vector<Weight> vertex_weights,
                      std::vector<TreeEdge> edges) {
  int n = static_cast<int>(vertex_weights.size());
  TGP_REQUIRE(n >= 1, "tree must have at least one vertex");
  TGP_REQUIRE(static_cast<int>(edges.size()) == n - 1,
              "tree must have exactly n-1 edges");
  Weight max_w = 0;
  for (Weight w : vertex_weights) {
    TGP_REQUIRE(w > 0 && std::isfinite(w),
                "vertex weights must be positive and finite");
    max_w = std::max(max_w, w);
  }
  for (const TreeEdge& e : edges) {
    TGP_REQUIRE(0 <= e.u && e.u < n && 0 <= e.v && e.v < n && e.u != e.v,
                "edge endpoints out of range");
    TGP_REQUIRE(e.weight > 0 && std::isfinite(e.weight),
                "edge weights must be positive and finite");
  }
  Tree t;
  t.vertex_weight_ = std::move(vertex_weights);
  t.max_vertex_weight_ = max_w;
  t.edges_ = std::move(edges);
  t.build_adjacency();
  // Connectivity (and, with n-1 edges, acyclicity) via BFS from 0.  A
  // plain vector doubles as queue and visit order — one allocation.
  std::vector<int> frontier;
  frontier.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  frontier.push_back(0);
  seen[0] = 1;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    for (auto [u, e] : t.neighbors(frontier[head])) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        frontier.push_back(u);
      }
    }
  }
  TGP_REQUIRE(static_cast<int>(frontier.size()) == n,
              "edge list does not form a connected tree");
  return t;
}

Tree Tree::from_parents(std::vector<Weight> vertex_weights,
                        const std::vector<int>& parent,
                        const std::vector<Weight>& parent_edge_weight) {
  int n = static_cast<int>(vertex_weights.size());
  TGP_REQUIRE(static_cast<int>(parent.size()) == n,
              "parent array size mismatch");
  TGP_REQUIRE(static_cast<int>(parent_edge_weight.size()) == n,
              "parent edge weight array size mismatch");
  TGP_REQUIRE(n >= 1 && parent[0] == -1, "vertex 0 must be the root");
  std::vector<TreeEdge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (int i = 1; i < n; ++i) {
    TGP_REQUIRE(0 <= parent[static_cast<std::size_t>(i)] &&
                    parent[static_cast<std::size_t>(i)] < i,
                "parent[i] must precede i");
    edges.push_back({i, parent[static_cast<std::size_t>(i)],
                     parent_edge_weight[static_cast<std::size_t>(i)]});
  }
  return from_edges(std::move(vertex_weights), std::move(edges));
}

void Tree::build_adjacency() {
  // Counting-sort construction of the CSR arrays: one degree pass, one
  // prefix sum, one fill pass.  Filling in ascending edge order keeps each
  // vertex's half-edges sorted by edge index — the same neighbor order the
  // per-vertex vectors used to produce, which downstream algorithms (and
  // their determinism tests) rely on.
  std::size_t n = vertex_weight_.size();
  adj_off_.assign(n + 1, 0);
  for (const TreeEdge& e : edges_) {
    ++adj_off_[static_cast<std::size_t>(e.u) + 1];
    ++adj_off_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) adj_off_[v + 1] += adj_off_[v];
  adj_.resize(2 * edges_.size());
  std::vector<int> cursor(adj_off_.begin(), adj_off_.end() - 1);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    adj_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(edges_[e].u)]++)] = {
        edges_[e].v, static_cast<int>(e)};
    adj_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(edges_[e].v)]++)] = {
        edges_[e].u, static_cast<int>(e)};
  }
}

Weight Tree::vertex_weight(int v) const {
  TGP_REQUIRE(0 <= v && v < n(), "vertex index out of range");
  return vertex_weight_[static_cast<std::size_t>(v)];
}

const TreeEdge& Tree::edge(int e) const {
  TGP_REQUIRE(0 <= e && e < edge_count(), "edge index out of range");
  return edges_[static_cast<std::size_t>(e)];
}

std::span<const std::pair<int, int>> Tree::neighbors(int v) const {
  TGP_REQUIRE(0 <= v && v < n(), "vertex index out of range");
  std::size_t lo = static_cast<std::size_t>(adj_off_[static_cast<std::size_t>(v)]);
  std::size_t hi =
      static_cast<std::size_t>(adj_off_[static_cast<std::size_t>(v) + 1]);
  return {adj_.data() + lo, hi - lo};
}

int Tree::degree(int v) const {
  return static_cast<int>(neighbors(v).size());
}

std::vector<int> Tree::leaves() const {
  std::vector<int> out;
  for (int v = 0; v < n(); ++v)
    if (is_leaf(v)) out.push_back(v);
  return out;
}

Weight Tree::total_vertex_weight() const {
  return std::accumulate(vertex_weight_.begin(), vertex_weight_.end(),
                         Weight{0});
}

std::vector<int> Tree::bfs_order(int root) const {
  TGP_REQUIRE(0 <= root && root < n(), "root out of range");
  // The output vector doubles as the BFS queue (its tail is the frontier),
  // so the traversal is two allocations and one linear pass.
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n()));
  std::vector<char> seen(static_cast<std::size_t>(n()), 0);
  order.push_back(root);
  seen[static_cast<std::size_t>(root)] = 1;
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (auto [u, e] : neighbors(order[head])) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        order.push_back(u);
      }
    }
  }
  return order;
}

void Tree::root_at(int root, std::vector<int>& parent,
                   std::vector<int>& parent_edge) const {
  parent.assign(static_cast<std::size_t>(n()), -1);
  parent_edge.assign(static_cast<std::size_t>(n()), -1);
  for (int v : bfs_order(root)) {
    for (auto [u, e] : neighbors(v)) {
      if (u != root && parent[static_cast<std::size_t>(u)] == -1 &&
          u != v && parent[static_cast<std::size_t>(v)] != u) {
        parent[static_cast<std::size_t>(u)] = v;
        parent_edge[static_cast<std::size_t>(u)] = e;
      }
    }
  }
  parent[static_cast<std::size_t>(root)] = -1;
  parent_edge[static_cast<std::size_t>(root)] = -1;
}

const TreeKey& Tree::canonical_key(util::Arena* arena,
                                   std::optional<TreeOrder>* order) const {
  if (order != nullptr) order->reset();
  if (const TreeKey* kept = key_.key.load(std::memory_order_acquire))
    return *kept;
  TreeLabelling computed = canonical_labelling(*this, arena);
  // Both parts move out of the labelling: the key to the heap, the order
  // to the caller.  A loser's order matches the winner's key, since the
  // labelling is a pure function of the tree.
  auto fresh = std::make_unique<const TreeKey>(
      std::move(static_cast<TreeKey&>(computed)));
  if (order != nullptr)
    order->emplace(std::move(static_cast<TreeOrder&>(computed)));
  // Release publishes the key's contents; a loser acquires the winner's.
  const TreeKey* kept = nullptr;
  if (key_.key.compare_exchange_strong(kept, fresh.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
    kept = fresh.release();
  return *kept;
}

void Tree::KeySlot::reset(const TreeKey* next) noexcept {
  delete key.exchange(next, std::memory_order_acq_rel);
}

}  // namespace tgp::graph
