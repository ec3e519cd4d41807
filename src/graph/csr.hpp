// Flat CSR views over task graphs — the storage layout of the hot paths.
//
// The Tree/Chain classes are the construction-and-validation API; the
// solvers iterate over a CsrView instead: plain arrays (half-edge
// offsets, neighbor pairs, SoA edge endpoints/weights, prefix-summed
// vertex weights) with no per-vertex indirection.  Views are built once
// per solve into a util::Arena — for a Tree this is zero-copy for the
// adjacency (Tree already stores CSR arrays) plus one pass to lay the
// edge columns out SoA; for a Chain it is the prefix-sum pass that makes
// every window sum O(1), with the chain's weight checks folded into the
// same pass and one more over the edge weights.  Solvers that walk a
// tree bottom up use a TreeLayout instead, which puts each vertex's
// children next to each other; its BFS writes every half-edge at the
// queue's tail without a branch on the parent edge, into arrays with one
// spare slot.  Nothing here owns memory: the source graph and the arena
// must outlive the view.
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
  /// Largest vertex weight, taken in the prefix pass.
  Weight max_vertex_weight = 0;

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
/// Checks what Chain::validate() checks, in its order, while it folds:
/// throws std::invalid_argument on an empty chain, a size mismatch, or a
/// vertex or edge weight that is not positive and finite.
CsrView csr_from_chain(const Chain& chain, util::Arena& arena);

/// A tree laid out by one BFS from vertex 0, arena-backed.  Every array
/// is indexed by BFS position: position p holds vertex vertex[p], and its
/// children are the contiguous positions first[p] .. first[p+1]-1, in
/// that vertex's adjacency order minus the edge to its parent.  A child's
/// position is larger than its parent's, so a reverse sweep over
/// positions visits children before parents, and parent[] never
/// decreases.  The arrays are writable so that a caller can re-root the
/// layout in place (graph/fingerprint.cpp does).  vertex, parent and edge
/// hold one spare slot past position n−1, which the BFS may write (its
/// contents are undefined).
struct TreeLayout {
  int n = 0;
  int* vertex = nullptr;            ///< n + spare
  int* parent = nullptr;            ///< n + spare, parent position, −1 at 0
  int* edge = nullptr;              ///< n + spare, edge to parent, −1 at 0
  Weight* vertex_weight = nullptr;  ///< n, weight of vertex[p]
  Weight* edge_weight = nullptr;    ///< n, weight of edge[p], 0 at 0
  int* first = nullptr;             ///< n+1 child-block offsets
  /// Σ vertex weights in vertex order, folded in the blocks of
  /// csr_from_tree's prefix, so it equals that view's
  /// total_vertex_weight() bit for bit (and with it load_epsilon).
  Weight total = 0;
};

/// Lays `tree` out in `arena`, by one BFS from vertex 0 over the
/// adjacency alone; the weight columns are gathered after it.
TreeLayout lay_out_tree(const Tree& tree, util::Arena& arena);

}  // namespace tgp::graph
