// Prime critical subpath enumeration (§2.3 of the paper).
//
// A *critical* subpath of chain P is a contiguous vertex window whose total
// vertex weight exceeds K; a critical subpath is *prime* when no proper
// sub-window of it is critical (the paper calls non-prime critical
// subpaths "dominated").  A cut S makes every component of P − S weigh
// ≤ K iff S hits at least one edge of every prime subpath, which turns
// bandwidth minimization into a structured weighted hitting-set problem.
//
// There are at most n − 1 prime subpaths and they are computed here in
// O(n) with a two-pointer sweep (the paper's step 1).
#pragma once

#include <vector>

#include "graph/chain.hpp"
#include "graph/csr.hpp"
#include "util/cancel.hpp"

namespace tgp::core {

/// One prime critical subpath.  Vertices [first_vertex, last_vertex] and
/// the edges strictly inside the window, [first_edge, last_edge] — these
/// are the paper's a_i and b_i.  Cutting any one of those edges splits the
/// window.
struct PrimeSubpath {
  int first_vertex;
  int last_vertex;
  graph::Weight weight;  ///< total vertex weight of the window (> K)

  int first_edge() const { return first_vertex; }
  int last_edge() const { return last_vertex - 1; }
  int edge_span() const { return last_vertex - first_vertex; }
};

/// Enumerate all prime subpaths of `chain` for bound K, ordered by
/// (strictly increasing) left endpoint — and therefore also by right
/// endpoint.  Requires K ≥ max vertex weight (otherwise no feasible
/// partition exists; the caller must reject such K).
std::vector<PrimeSubpath> prime_subpaths(const graph::Chain& chain,
                                         graph::Weight K);

/// Allocation-free core: enumerate into `out` (caller-provided, capacity
/// ≥ n) and return the count.  `g` must be a chain view (csr_from_chain).
/// csr_from_chain checks the chain; callers of this variant also check K
/// against the view's max_vertex_weight, as the vector wrapper does.  One
/// sweep, polling `cancel` every util::kPollStride vertices.
int prime_subpaths_into(const graph::CsrView& g, graph::Weight K,
                        PrimeSubpath* out,
                        const util::CancelToken* cancel = nullptr);

/// One step of the prime sweep: the left end of the longest window ending
/// at r whose weight is at most k_eff, advanced from `lo`, that of r − 1.
/// [lo − 1, r] is then critical and left-minimal (when lo > 0), and prime
/// iff [lo − 1, r − 1] is not critical.  Three left ends are tested side
/// by side, and lo moves by the leading run of true tests, which is what
/// one test at a time would do even where the blocked prefix steps down
/// at a block boundary and a later test holds again.
inline int fitting_left_end(const graph::CsrView& g, graph::Weight k_eff,
                            int lo, int r) {
  for (;;) {
    const bool a1 = lo < r && g.window(lo, r) > k_eff;
    const bool a2 = lo + 1 < r && g.window(lo + 1, r) > k_eff;
    const bool a3 = lo + 2 < r && g.window(lo + 2, r) > k_eff;
    lo += a1 + (a1 && a2) + (a1 && a2 && a3);
    if (!(a1 && a2 && a3)) return lo;
  }
}

/// Sanity predicate used by tests: true iff `sub` is critical and minimal.
bool is_prime(const graph::ChainPrefix& prefix, int first_vertex,
              int last_vertex, graph::Weight K);

}  // namespace tgp::core
