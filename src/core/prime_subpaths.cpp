#include "core/prime_subpaths.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace tgp::core {

bool is_prime(const graph::ChainPrefix& prefix, int first_vertex,
              int last_vertex, graph::Weight K) {
  if (first_vertex > last_vertex) return false;
  if (prefix.window(first_vertex, last_vertex) <= K) return false;  // not critical
  // Minimal iff dropping either endpoint makes it non-critical.  (A window
  // containing a critical proper sub-window also contains one obtained by
  // dropping an endpoint repeatedly, so checking both one-step shrinks is
  // enough.)
  if (first_vertex < last_vertex &&
      prefix.window(first_vertex + 1, last_vertex) > K)
    return false;
  if (first_vertex < last_vertex &&
      prefix.window(first_vertex, last_vertex - 1) > K)
    return false;
  return true;
}

int prime_subpaths_into(const graph::CsrView& g, graph::Weight K,
                        PrimeSubpath* out, const util::CancelToken* cancel) {
  const int n = g.n;
  // Slightly relaxed bound so prefix-sum rounding cannot make a single
  // vertex look critical when K equals the maximum vertex weight.
  const graph::Weight k_eff =
      K + graph::load_epsilon(g.total_vertex_weight(), n);
  int count = 0;
  int lo = 0;  // two-pointer: left end of the longest fitting window at r
  for (int r0 = 0; r0 < n; r0 += util::kPollStride) {
    if (cancel) cancel->poll();
    const int r1 = std::min(n, r0 + util::kPollStride);
    for (int r = r0; r < r1; ++r) {
      lo = fitting_left_end(g, k_eff, lo, r);
      if (lo == 0) continue;  // no critical window ends at r
      // [lo-1, r] is critical and left-minimal.  It is prime iff it is
      // also right-minimal, i.e. [lo-1, r-1] is not critical.  out has a
      // slot for every vertex, so the candidate is written either way.
      out[count] = {lo - 1, r, g.window(lo - 1, r)};
      count += g.window(lo - 1, r - 1) <= k_eff;
    }
  }
  // Postconditions from the paper: subpaths strictly ordered on both ends,
  // each spanning at least one edge.
  for (int i = 0; i < count; ++i) {
    TGP_ENSURE(out[i].edge_span() >= 1, "prime subpath without edges");
    if (i > 0) {
      TGP_ENSURE(out[i - 1].first_vertex < out[i].first_vertex &&
                     out[i - 1].last_vertex < out[i].last_vertex,
                 "prime subpaths not strictly ordered");
    }
  }
  return count;
}

std::vector<PrimeSubpath> prime_subpaths(const graph::Chain& chain,
                                         graph::Weight K) {
  util::ScratchFrame frame(nullptr);
  const graph::CsrView g = graph::csr_from_chain(chain, frame.arena());
  TGP_REQUIRE(K >= g.max_vertex_weight,
              "K must be at least the maximum vertex weight");
  PrimeSubpath* buf =
      frame->alloc_array<PrimeSubpath>(static_cast<std::size_t>(chain.n()));
  int count = prime_subpaths_into(g, K, buf);
  return std::vector<PrimeSubpath>(buf, buf + count);
}

}  // namespace tgp::core
