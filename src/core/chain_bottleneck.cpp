#include "core/chain_bottleneck.hpp"

#include <algorithm>
#include <limits>

#include "core/prime_subpaths.hpp"
#include "graph/csr.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace tgp::core {

BottleneckResult chain_bottleneck_min(const graph::Chain& chain,
                                      graph::Weight K, util::Arena* arena,
                                      const util::CancelToken* cancel) {
  TGP_SPAN("core", "chain_bottleneck");
  util::ScratchFrame frame(arena);
  const graph::CsrView g = graph::csr_from_chain(chain, frame.arena());
  TGP_REQUIRE(K >= g.max_vertex_weight,
              "K must be at least the maximum vertex weight");
  const int n = g.n;
  const graph::Weight* w = g.edge_weight;
  // prime_subpaths_into's bound and sweep, with each prime's cheapest
  // edge taken as the prime is found; the final check uses the same bound.
  const graph::Weight k_eff =
      K + graph::load_epsilon(g.total_vertex_weight(), n);

  // Window minimum by two stacks.  The front holds edges [a, mid) of the
  // current window as suffix minima: suf[e] is the cheapest edge of
  // [e, mid).  The back holds edges [mid, r) as a running minimum.  Ties
  // go to the later edge everywhere (a suffix minimum moves only on a
  // strict <, the back takes a new edge on <=, the back beats the front
  // on ties), so every window yields the last edge holding its minimum.
  // When a window starts at or past mid, the front is rebuilt over the
  // whole window and the back empties.  Every edge joins the back once
  // and the front at most once.
  //
  // The cut is written over suf's dead front.  The p-th prime starts at
  // edge a ≥ p − 1 (first edges rise strictly from 0), and at most p − 1
  // cut edges precede its own, so suf[k] with k ≤ a is written after the
  // window has read suf[a], and no later window reads below a + 1.
  int* suf = frame->alloc_array<int>(static_cast<std::size_t>(g.m));
  constexpr graph::Weight kNone =
      std::numeric_limits<graph::Weight>::infinity();
  int mid = 0;
  int back = -1;
  graph::Weight back_w = kNone;

  int k = 0;  // cut edges, in suf[0, k)
  int last = -1;
  graph::Weight threshold = 0;
  int p = 0;  // prime subpaths found
  int prev_first = -1, prev_last = -1;
  int lo = 0;  // two-pointer: left end of the longest fitting window at r
  for (int r0 = 0; r0 < n; r0 += util::kPollStride) {
    if (cancel) cancel->poll();
    const int r1 = std::min(n, r0 + util::kPollStride);
    for (int r = std::max(r0, 1); r < r1; ++r) {
      // The back takes edge r-1 on <=.  Here and at the window's pick
      // below, weights are taken with min and max so that the selects
      // compile without branches.
      back = w[r - 1] <= back_w ? r - 1 : back;
      back_w = std::min(w[r - 1], back_w);
      // prime_subpaths_into's tests: [lo-1, r] is prime, with edges
      // lo-1 .. r-1, iff [lo-1, r-1] is not critical.
      lo = fitting_left_end(g, k_eff, lo, r);
      if (lo == 0 || g.window(lo - 1, r - 1) > k_eff) continue;
      const int a = lo - 1;
      TGP_ENSURE(a < r, "prime subpath without edges");
      TGP_ENSURE(a > prev_first && r > prev_last,
                 "prime subpaths not strictly ordered");
      prev_first = a;
      prev_last = r;
      ++p;
      if (a >= mid) {
        int s = r - 1;
        graph::Weight sw = w[s];
        suf[s] = s;
        for (int e = r - 2; e >= a; --e) {
          const bool lower = w[e] < sw;
          s = lower ? e : s;
          sw = lower ? w[e] : sw;
          suf[e] = s;
        }
        mid = r;
        back = -1;
        back_w = kNone;
      }
      const int front = suf[a];
      const graph::Weight front_w = w[front];
      const int best = back_w <= front_w ? back : front;
      threshold = std::max(threshold, std::min(back_w, front_w));
      // Window fronts only move right, so skipping a repeat of the last
      // edge leaves the cut sorted and unique, its canonical form.
      suf[k] = best;
      k += best != last;
      last = best;
    }
  }
  BottleneckResult out;
  out.cut.edges.assign(suf, suf + k);
  out.threshold = threshold;
  if (obs::SolveCounters* oc = obs::active_counters()) {
    oc->prime_subpaths += static_cast<std::uint64_t>(p);
    // One window-minimum extraction per prime subpath.
    oc->oracle_calls += static_cast<std::uint64_t>(p);
  }
  if (p == 0) return out;  // whole chain fits: empty cut

  ++out.feasibility_checks;
  {
    int start = 0;
    bool feasible = true;
    graph::Weight max_edge = 0;
    for (int e : out.cut.edges) {
      if (g.window(start, e) > k_eff) feasible = false;
      max_edge = std::max(max_edge, w[e]);
      start = e + 1;
    }
    if (g.window(start, n - 1) > k_eff) feasible = false;
    TGP_ENSURE(feasible, "chain bottleneck cut infeasible");
    TGP_ENSURE(max_edge == out.threshold,
               "threshold disagrees with the chosen cut");
  }
  return out;
}

}  // namespace tgp::core
