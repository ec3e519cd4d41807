// Non-redundant edge reduction (§2.3 / §2.3.1 of the paper).
//
// For the hitting-set DP only an edge's *membership set* — the (contiguous)
// range of prime subpaths it belongs to — and its weight matter.  Among
// edges with identical membership ranges only the lightest can ever appear
// in an optimal solution, so the instance shrinks to at most 2p − 1
// "non-redundant" edges.  This file computes, in O(n + p):
//   * for every edge, the range [c_j, d_j] of prime subpaths containing it
//     (empty for edges in no critical window), and
//   * the list of non-redundant edges in left-to-right order.
#pragma once

#include <vector>

#include "core/prime_subpaths.hpp"
#include "graph/chain.hpp"
#include "util/cancel.hpp"

namespace tgp::core {

/// One non-redundant edge: the lightest edge among all edges that belong to
/// exactly the prime subpaths [first_prime, last_prime] (0-based, inclusive).
struct ReducedEdge {
  int edge;            ///< original edge index in the chain
  int first_prime;     ///< c_j − 1 in the paper's 1-based notation
  int last_prime;      ///< d_j − 1
  graph::Weight weight;

  /// Number of prime subpaths this edge belongs to (the paper's q_j).
  int prime_count() const { return last_prime - first_prime + 1; }
};

/// Reduce the instance.  `primes` must come from prime_subpaths() on the
/// same chain and K.  The result is ordered by edge position, and the
/// membership ranges tile [0, p) in the sense required by the DP: ranges
/// are non-decreasing in both endpoints and every prime subpath is covered
/// by at least one reduced edge.
std::vector<ReducedEdge> reduce_edges(const graph::Chain& chain,
                                      const std::vector<PrimeSubpath>& primes);

/// Allocation-free core: reduce into `out` (caller-provided, capacity ≥
/// the chain's edge count) and return the count.  `g` must be a chain
/// view (csr_from_chain); `primes` has `p` entries from
/// prime_subpaths_into on the same view and K.  One sweep, polling
/// `cancel` every util::kPollStride edges; the reduced edge being built
/// stays in registers and is stored once its membership range closes.
int reduce_edges_into(const graph::CsrView& g, const PrimeSubpath* primes,
                      int p, ReducedEdge* out,
                      const util::CancelToken* cancel = nullptr);

/// Membership range of every edge (first_prime > last_prime encodes "edge
/// belongs to no prime subpath").  Exposed separately for tests and for the
/// Figure-2 instrumentation.
struct EdgeMembership {
  int first_prime;
  int last_prime;
  bool covered() const { return first_prime <= last_prime; }
};
std::vector<EdgeMembership> edge_memberships(
    const graph::Chain& chain, const std::vector<PrimeSubpath>& primes);

}  // namespace tgp::core
