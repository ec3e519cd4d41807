// Flat CSR views over task graphs — the storage layout of the hot paths.
//
// The Tree/Chain classes are the construction-and-validation API; the
// solvers iterate over a CsrView instead: plain arrays (half-edge
// offsets, neighbor pairs, SoA edge endpoints/weights, prefix-summed
// vertex weights) with no per-vertex indirection.  Views are built once
// per solve into a util::Arena — for a Tree this is zero-copy for the
// adjacency (Tree already stores CSR arrays) plus one pass to lay the
// edge columns out SoA; for a Chain it is the prefix-sum pass that makes
// every window sum O(1).  Nothing here owns memory: the source graph and
// the arena must outlive the view.
#pragma once

#include <span>
#include <utility>

#include "graph/chain.hpp"
#include "graph/tree.hpp"
#include "graph/weight.hpp"
#include "util/arena.hpp"

namespace tgp::graph {

struct CsrView {
  int n = 0;  ///< vertices
  int m = 0;  ///< edges

  // Adjacency: half-edges of vertex v are adj[offsets[v] .. offsets[v+1]).
  // Null for chains (the line topology is implicit).
  const int* offsets = nullptr;              ///< n+1
  const std::pair<int, int>* adj = nullptr;  ///< 2m (neighbor, edge index)

  const Weight* vertex_weight = nullptr;  ///< n
  const Weight* edge_weight = nullptr;    ///< m
  // Edge endpoints, SoA.  For chains edge e = (e, e+1) implicitly and
  // these stay null.
  const int* edge_u = nullptr;  ///< m
  const int* edge_v = nullptr;  ///< m

  /// Vertex-weight prefix sums: prefix[k] = Σ vertex_weight[0..k).
  /// Always built (n+1 entries); for chains this is the O(1) window-sum
  /// table, for trees it still provides total weight in O(1).
  const Weight* prefix = nullptr;

  std::span<const std::pair<int, int>> neighbors(int v) const {
    return {adj + offsets[v], adj + offsets[v + 1]};
  }
  int degree(int v) const { return offsets[v + 1] - offsets[v]; }

  /// Total vertex weight of vertices i..j inclusive (chain windows; valid
  /// for any graph under its native vertex numbering).
  Weight window(int i, int j) const { return prefix[j + 1] - prefix[i]; }
  Weight total_vertex_weight() const { return prefix[n]; }
};

/// View of a Tree: adjacency and vertex weights alias the Tree's own CSR
/// storage; edge SoA columns and prefix sums are laid out in `arena`.
CsrView csr_from_tree(const Tree& tree, util::Arena& arena);

/// View of a Chain: vertex/edge weights alias the chain's vectors; prefix
/// sums are laid out in `arena`.  No adjacency (offsets/adj stay null).
CsrView csr_from_chain(const Chain& chain, util::Arena& arena);

/// Rooted orientation of a tree CSR, arena-backed: vertices in BFS order
/// from `root` (parent before child), parent vertex and parent edge per
/// vertex (−1 at the root).  Produces exactly the same order/parent
/// arrays as Tree::bfs_order + Tree::root_at, with zero heap traffic.
struct RootedView {
  int n = 0;
  const int* order = nullptr;        ///< n, BFS order
  const int* parent = nullptr;       ///< n, −1 at root
  const int* parent_edge = nullptr;  ///< n, −1 at root
};

RootedView root_csr(const CsrView& g, int root, util::Arena& arena);

}  // namespace tgp::graph
