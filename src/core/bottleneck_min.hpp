// Bottleneck minimization for tree task graphs (§2.1, Algorithm 2.1).
//
// Given tree T with vertex weights ω and edge weights δ and a bound K,
// find an edge cut S such that every component of T − S weighs ≤ K and
// max_{e∈S} δ(e) is minimum.  On a shared-memory machine the bottleneck is
// the largest single communication demand any one crossing edge places on
// the network.
//
// Key monotonicity (the paper's correctness argument): cutting *all* edges
// of weight ≤ t is feasible iff some cut with bottleneck ≤ t is feasible,
// because adding edges to a cut only shrinks components.  So the optimal
// cut is the shortest feasible prefix of the ascending edge order, which
// ends at the first edge whose union, heaviest first, would overflow K.
#pragma once

#include "graph/cutset.hpp"
#include "graph/tree.hpp"
#include "util/arena.hpp"
#include "util/cancel.hpp"

namespace tgp::core {

struct BottleneckResult {
  graph::Cut cut;               ///< the algorithm's S (all edges ≤ threshold
                                ///< that it chose to include)
  graph::Weight threshold = 0;  ///< max δ(e) over S; 0 for the empty cut
  int feasibility_checks = 0;   ///< component-weight scans performed
};

/// The paper's Algorithm 2.1 exactly as published: grow S one ascending
/// edge at a time, re-checking feasibility after each insertion — O(n²).
/// Both variants poll `cancel` (when given) in their outer loops and
/// unwind with util::CancelledError on a stop request.
///
/// Both variants iterate a flat graph::CsrView and draw all scratch from
/// `arena` (null = a per-thread fallback arena): after a warm-up call the
/// steady-state path performs no heap allocation beyond the returned cut.
BottleneckResult bottleneck_min_scan(const graph::Tree& tree, graph::Weight K,
                                     const util::CancelToken* cancel = nullptr,
                                     util::Arena* arena = nullptr);

/// Same optimum from one linear-time order by (weight, index) — a stable
/// radix sort of the weights' bit patterns, so ties keep index order —
/// and one near-linear descending union-find pass (named for an older
/// bisection).
BottleneckResult bottleneck_min_bsearch(
    const graph::Tree& tree, graph::Weight K,
    const util::CancelToken* cancel = nullptr, util::Arena* arena = nullptr);

}  // namespace tgp::core
