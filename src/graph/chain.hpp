// Linear (chain) task graphs — the input of the paper's §2.3 bandwidth
// minimization problem.
//
// A chain P = (V, E) has vertices v_1..v_n with computation weights
// α_i > 0 and edges e_i = (v_i, v_{i+1}) with communication weights
// β_i > 0.  We use 0-based indices throughout: vertex i for v_{i+1},
// edge i for e_{i+1} = (v_{i+1}, v_{i+2}).
#pragma once

#include <span>
#include <vector>

#include "graph/weight.hpp"

namespace tgp::graph {

/// A weighted linear task graph.  Plain aggregate: vertex_weight has n
/// entries, edge_weight has n−1.  Call validate() after hand-construction.
struct Chain {
  std::vector<Weight> vertex_weight;
  std::vector<Weight> edge_weight;

  int n() const { return static_cast<int>(vertex_weight.size()); }
  int edge_count() const { return static_cast<int>(edge_weight.size()); }

  Weight total_vertex_weight() const;
  Weight max_vertex_weight() const;
  Weight total_edge_weight() const;

  /// Throws std::invalid_argument unless sizes are consistent (n ≥ 1,
  /// |E| = n−1) and all weights are strictly positive and finite.
  /// Returns the largest vertex weight, taken in the same pass.
  Weight validate() const;

  /// Sub-chain over vertices [first, last] inclusive (edges inside it).
  Chain slice(int first, int last) const;
};

/// Prefix sums over a chain's vertex weights for O(1) window queries.
/// The paper's prime-subpath enumeration and all the DP baselines use this.
class ChainPrefix {
 public:
  explicit ChainPrefix(const Chain& chain);

  /// Total vertex weight of v_i..v_j (0-based, inclusive); i ≤ j required.
  Weight window(int i, int j) const;

  /// Weight of the prefix v_0..v_j inclusive.
  Weight prefix(int j) const { return window(0, j); }

  /// Largest j ≥ start−1 such that window(start, j) ≤ budget; returns
  /// start−1 when even v_start alone exceeds the budget.  O(log n) — the
  /// binary-search probe step of Nicol-style chain partitioners.
  int last_fitting(int start, Weight budget) const;

  int n() const { return static_cast<int>(acc_.size()) - 1; }

 private:
  std::vector<Weight> acc_;  // acc_[k] = sum of vertex weights < k
};

}  // namespace tgp::graph
