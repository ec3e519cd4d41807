#include "core/chain_bottleneck.hpp"

#include <algorithm>

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
  chain.validate();
  TGP_REQUIRE(K >= chain.max_vertex_weight(),
              "K must be at least the maximum vertex weight");
  obs::SolveCounters* oc = obs::active_counters();
  util::ScratchFrame frame(arena);
  graph::CsrView g = graph::csr_from_chain(chain, frame.arena());

  PrimeSubpath* primes =
      frame->alloc_array<PrimeSubpath>(static_cast<std::size_t>(g.n));
  const int p = prime_subpaths_into(g, K, primes, cancel);
  if (oc) {
    oc->prime_subpaths += static_cast<std::uint64_t>(p);
    // One window-minimum extraction per prime subpath.
    oc->oracle_calls += static_cast<std::uint64_t>(p);
  }
  BottleneckResult out;
  if (p == 0) return out;  // whole chain fits: empty cut

  // Sliding-window minimum over edge weights.  Both ends of the prime
  // windows only move right, so one monotone deque (push with >=-popping
  // keeps the strictly increasing minima chain; equal weights keep the
  // later index) yields every window's minimum in one pass.  Each prime
  // contributes its minimum edge, deduplicated against the previous one:
  // window fronts only move right, so the list comes out sorted and
  // unique, the cut's canonical form.
  auto weight = [&](int e) { return g.edge_weight[e]; };
  const int base = primes[0].first_edge();
  int* dq = frame->alloc_array<int>(
      static_cast<std::size_t>(primes[p - 1].last_edge() - base + 1));
  int head = 0, tail = 0;  // live entries dq[head..tail)
  int pushed = base - 1;
  out.cut.edges.reserve(static_cast<std::size_t>(p));
  for (int p0 = 0; p0 < p; p0 += util::kPollStride) {
    if (cancel) cancel->poll();
    const int p1 = std::min(p, p0 + util::kPollStride);
    for (int pi = p0; pi < p1; ++pi) {
      const PrimeSubpath& prime = primes[pi];
      while (pushed < prime.last_edge()) {
        ++pushed;
        while (tail > head && weight(dq[tail - 1]) >= weight(pushed)) --tail;
        dq[tail++] = pushed;
      }
      while (dq[head] < prime.first_edge()) ++head;
      const int best = dq[head];
      out.threshold = std::max(out.threshold, weight(best));
      if (out.cut.edges.empty() || out.cut.edges.back() != best)
        out.cut.edges.push_back(best);
    }
  }
  ++out.feasibility_checks;
  {
    const graph::Weight limit =
        K + graph::load_epsilon(g.total_vertex_weight(), g.n);
    int start = 0;
    bool feasible = true;
    for (int e : out.cut.edges) {
      if (g.window(start, e) > limit) feasible = false;
      start = e + 1;
    }
    if (g.window(start, g.n - 1) > limit) feasible = false;
    TGP_ENSURE(feasible, "chain bottleneck cut infeasible");
    graph::Weight max_edge = 0;
    for (int e : out.cut.edges) max_edge = std::max(max_edge, weight(e));
    TGP_ENSURE(max_edge == out.threshold,
               "threshold disagrees with the chosen cut");
  }
  return out;
}

}  // namespace tgp::core
