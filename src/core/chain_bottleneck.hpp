// Bottleneck minimization specialized to chains.
//
// Algorithm 2.1 treats general trees; on a chain the prime-subpath
// machinery of §2.3 yields a closed form.  A cut is feasible iff it hits
// every prime critical subpath, and any edge hitting prime subpath P_i
// weighs at least min_{e ∈ P_i} β(e); conversely picking exactly that
// minimum edge in every prime subpath is feasible.  Hence
//
//     bottleneck* = max over prime subpaths of (min edge inside it),
//
// computable in O(n) by one sweep that finds the prime subpaths and takes
// each one's minimum from a two-stack window minimum — asymptotically
// better than running the tree algorithm on the path.
#pragma once

#include "core/bottleneck_min.hpp"
#include "graph/chain.hpp"
#include "graph/cutset.hpp"

namespace tgp::core {

/// O(n) bottleneck minimization on a chain.  The returned cut takes the
/// minimum-weight edge of every prime subpath (deduplicated), so it is
/// feasible, and its max edge equals the optimal threshold.
/// Preconditions: chain valid, K ≥ max vertex weight (checked while the
/// prefix is built; std::invalid_argument otherwise).  Scratch (the
/// prefix sums and one int per vertex) comes from `arena` (null =
/// per-thread fallback); steady state allocates nothing beyond the
/// returned cut.  One sweep over the vertices, polling `cancel` every
/// util::kPollStride vertices.
BottleneckResult chain_bottleneck_min(const graph::Chain& chain,
                                      graph::Weight K,
                                      util::Arena* arena = nullptr,
                                      const util::CancelToken* cancel = nullptr);

}  // namespace tgp::core
