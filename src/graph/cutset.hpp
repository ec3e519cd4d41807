// Edge-cut representation, component computation and feasibility checks.
//
// All partitioning algorithms in src/core return a Cut; all tests validate
// results through the functions here, so correctness checks never share
// code with the algorithms they check.
#pragma once

#include <span>
#include <vector>

#include "graph/chain.hpp"
#include "graph/tree.hpp"

namespace tgp::graph {

/// An edge cut: indices of removed edges, in no particular order.
struct Cut {
  std::vector<int> edges;

  int size() const { return static_cast<int>(edges.size()); }
  bool empty() const { return edges.empty(); }

  /// Sorted, deduplicated copy (canonical form for comparisons).
  Cut canonical() const;
};

// ---- Chain cuts -----------------------------------------------------------

/// Component vertex weights of P − S, left to right.  Cutting edge i
/// separates vertex i from vertex i+1.
std::vector<Weight> chain_component_weights(const Chain& chain,
                                            const Cut& cut);

/// True iff every component of P − S has vertex weight ≤ K.
bool chain_cut_feasible(const Chain& chain, const Cut& cut, Weight K);

/// Σ β(e) over cut edges.
Weight chain_cut_weight(const Chain& chain, const Cut& cut);

/// max β(e) over cut edges (0 for the empty cut).
Weight chain_cut_max_edge(const Chain& chain, const Cut& cut);

// ---- Tree cuts ------------------------------------------------------------

/// Component id per vertex of T − S (ids are dense, 0-based).
std::vector<int> tree_components(const Tree& tree, const Cut& cut);

/// Total vertex weight per component of T − S.
std::vector<Weight> tree_component_weights(const Tree& tree, const Cut& cut);

/// True iff every component of T − S has vertex weight ≤ K (+ the
/// load_epsilon tolerance), each weighed in the order the solvers'
/// checker (core/csr_feasible) floods it so both agree to the last bit.
bool tree_cut_feasible(const Tree& tree, const Cut& cut, Weight K);

/// Σ δ(e) over cut edges.
Weight tree_cut_weight(const Tree& tree, const Cut& cut);

/// max δ(e) over cut edges (0 for the empty cut).
Weight tree_cut_max_edge(const Tree& tree, const Cut& cut);

/// Contract each component of T − S to a super-node (weight = component
/// weight); surviving edges are exactly the cut edges (§2.2 observes the
/// result is again a tree).  Returns the contracted tree and, via
/// `original_edge`, the original edge index for each contracted edge.
Tree contract_components(const Tree& tree, const Cut& cut,
                         std::vector<int>* original_edge = nullptr);

}  // namespace tgp::graph
