// Weighted free trees — the input of the paper's §2.1 bottleneck
// minimization and §2.2 processor minimization problems.
#pragma once

#include <atomic>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/weight.hpp"

namespace tgp::util {
class Arena;
}

namespace tgp::graph {

struct TreeKey;    // graph/fingerprint.hpp
struct TreeOrder;  // graph/fingerprint.hpp

/// One undirected tree edge between vertices u and v.
struct TreeEdge {
  int u;
  int v;
  Weight weight;
};

/// A weighted free (unrooted) tree over vertices 0..n−1 with n−1 edges.
/// Construction validates connectivity and acyclicity; the adjacency index
/// is built once and shared by all algorithms, and the largest vertex
/// weight is recorded while the weights are checked, so the K ≥ max w
/// checks of the service and the tree kernels cost O(1).  A Tree never
/// changes once built, so it also keeps its canonical key once one is
/// computed (canonical_key).
class Tree {
 public:
  /// Build from an explicit edge list.  Throws std::invalid_argument unless
  /// the edges form a tree over the given vertices and all weights are
  /// positive and finite.
  static Tree from_edges(std::vector<Weight> vertex_weights,
                         std::vector<TreeEdge> edges);

  /// Build from a parent array rooted at vertex 0: parent[0] must be −1 and
  /// parent[i] < i gives the usual topological construction.
  /// parent_edge_weight[i] is the weight of edge (i, parent[i]) for i ≥ 1.
  static Tree from_parents(std::vector<Weight> vertex_weights,
                           const std::vector<int>& parent,
                           const std::vector<Weight>& parent_edge_weight);

  int n() const { return static_cast<int>(vertex_weight_.size()); }
  int edge_count() const { return static_cast<int>(edges_.size()); }

  Weight vertex_weight(int v) const;
  const std::vector<Weight>& vertex_weights() const { return vertex_weight_; }
  const TreeEdge& edge(int e) const;
  const std::vector<TreeEdge>& edges() const { return edges_; }

  /// (neighbor, edge index) pairs incident to v.
  std::span<const std::pair<int, int>> neighbors(int v) const;

  /// Flat CSR adjacency: half-edges of vertex v live at
  /// adjacency_flat()[adjacency_offsets()[v] .. adjacency_offsets()[v+1]).
  /// One contiguous allocation shared by all vertices — the raw arrays a
  /// graph::CsrView points at.
  std::span<const int> adjacency_offsets() const { return adj_off_; }
  std::span<const std::pair<int, int>> adjacency_flat() const { return adj_; }

  int degree(int v) const;
  bool is_leaf(int v) const { return degree(v) <= 1; }
  std::vector<int> leaves() const;

  Weight total_vertex_weight() const;
  /// Recorded by from_edges.
  Weight max_vertex_weight() const { return max_vertex_weight_; }

  /// Vertices in BFS order from `root` (parent-before-child).
  std::vector<int> bfs_order(int root) const;

  /// parent[v] and parent_edge[v] under rooting at `root` (−1 at the root).
  void root_at(int root, std::vector<int>& parent,
               std::vector<int>& parent_edge) const;

  /// The tree's memo-cache key (graph::TreeKey: the fingerprint and the
  /// canonical-to-submitted edge map).  The first call computes it with
  /// canonical_labelling, scratch from `arena` (null = per-thread
  /// fallback), and publishes it with one compare-exchange, so threads
  /// racing on a fresh tree all return the one copy that won; every later
  /// call returns that copy.  It lives as long as the tree.  A copy of
  /// the tree starts without a key; a moved-to tree takes the source's.
  /// When `order` is given, it is set to the rest of the labelling if
  /// this call ran canonical_labelling, so the caller can build the
  /// canonical tree from the key and it without hashing again, and reset
  /// if the key was already kept.
  const TreeKey& canonical_key(
      util::Arena* arena = nullptr,
      std::optional<TreeOrder>* order = nullptr) const;

 private:
  // Owns the kept key.  Copying gives an empty slot, since the copy is a
  // new object that keys itself; moving takes the key along with the
  // arrays it describes.
  struct KeySlot {
    mutable std::atomic<const TreeKey*> key{nullptr};

    KeySlot() = default;
    KeySlot(const KeySlot&) noexcept {}
    KeySlot(KeySlot&& o) noexcept : key(o.key.exchange(nullptr)) {}
    KeySlot& operator=(const KeySlot&) noexcept {
      reset(nullptr);
      return *this;
    }
    KeySlot& operator=(KeySlot&& o) noexcept {
      reset(o.key.exchange(nullptr));
      return *this;
    }
    ~KeySlot() { reset(nullptr); }
    void reset(const TreeKey* next) noexcept;  // frees the key it held
  };

  Tree() = default;
  void build_adjacency();

  std::vector<Weight> vertex_weight_;
  Weight max_vertex_weight_ = 0;
  std::vector<TreeEdge> edges_;
  // CSR adjacency: adj_ holds the 2(n-1) half-edges grouped by vertex
  // (edge-index order within a vertex), adj_off_ the n+1 group boundaries.
  std::vector<std::pair<int, int>> adj_;
  std::vector<int> adj_off_;
  KeySlot key_;
};

}  // namespace tgp::graph
