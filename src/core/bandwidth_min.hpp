// Bandwidth minimization for linear task graphs (§2.3, Algorithm 4.1).
//
// Problem: given chain P with vertex weights α and edge weights β, and a
// bound K ≥ max α, find a minimum-total-weight edge cut S such that every
// component of P − S has vertex weight ≤ K.  On shared-memory machines
// β(S) is exactly the communication bandwidth demand the partition places
// on the interconnection network, hence the name.
//
// The paper's pipeline:
//   1. enumerate prime critical subpaths            — O(n)
//   2. reduce to ≤ 2p−1 non-redundant edges         — O(n)
//   3. weighted hitting-set DP over the prime
//      subpaths using the TEMP_S queue              — O(p log q)
// for a total of O(n + p log q) time and O(n) space, versus the best
// previously known O(n log n) (Nicol & O'Hallaron 1991).
#pragma once

#include <optional>

#include "core/nonredundant.hpp"
#include "core/prime_subpaths.hpp"
#include "core/temps_queue.hpp"
#include "graph/chain.hpp"
#include "graph/cutset.hpp"
#include "util/cancel.hpp"

namespace tgp::core {

/// Result of any bandwidth-minimization algorithm.
struct BandwidthResult {
  graph::Cut cut;              ///< chosen edges (canonical: sorted unique)
  graph::Weight cut_weight;    ///< β(S), the minimized objective
};

/// Instrumentation captured by bandwidth_min_temps — the quantities of
/// Figure 2 and Appendix B.
struct BandwidthInstrumentation {
  int n = 0;        ///< vertices
  int p = 0;        ///< prime subpaths
  int r = 0;        ///< non-redundant edges (≤ min(2p−1, n−1))
  double q_avg = 0; ///< the paper's q = Σ q_i / r
  int q_max = 0;    ///< max primes any one edge belongs to
  TempsStats temps; ///< queue occupancy + search-step counts

  /// The paper's average-case cost proxy, p·log₂(q).
  double p_log_q() const;
  /// The baseline cost proxy, n·log₂(n).
  double n_log_n() const;
};

/// How step 2a locates the first TEMP_S row with W ≥ W_i.
enum class SearchPolicy {
  kBinary,  ///< plain binary search over the W column (the paper's 4.1)
  kGallop,  ///< gallop from BOTTOM — the §2.3.2 future-work refinement,
            ///< exploiting W values' tendency to grow towards the end
};

/// Algorithm 4.1: O(n + p log q) bandwidth minimization.
/// Preconditions: chain valid, K ≥ max vertex weight.
/// Postconditions: the cut is feasible and its weight is minimal (the
/// test suite checks minimality against three independent baselines).
/// `cancel` (optional) is polled every util::kPollStride items of each
/// sweep, reduced edges included; a stop request unwinds with
/// util::CancelledError.  The DP keeps only the last closed prime's
/// optimum.  All transient state (primes, reduced edges, TEMP_S rows,
/// solution cons-cells) lives in `scratch` (null = per-thread fallback
/// arena), so steady state allocates nothing beyond the returned cut.
BandwidthResult bandwidth_min_temps(
    const graph::Chain& chain, graph::Weight K,
    BandwidthInstrumentation* instr = nullptr,
    SearchPolicy policy = SearchPolicy::kBinary,
    const util::CancelToken* cancel = nullptr, util::Arena* scratch = nullptr);

}  // namespace tgp::core
