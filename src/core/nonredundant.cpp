#include "core/nonredundant.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace tgp::core {

std::vector<EdgeMembership> edge_memberships(
    const graph::Chain& chain, const std::vector<PrimeSubpath>& primes) {
  int m = chain.edge_count();
  int p = static_cast<int>(primes.size());
  std::vector<EdgeMembership> out(static_cast<std::size_t>(m), {0, -1});
  // Edge j belongs to prime i iff first_edge(i) <= j <= last_edge(i).
  // Both endpoints of the membership range are monotone in j, so two
  // forward pointers suffice.
  int c = 0;  // first prime with last_edge >= j
  int d = -1; // last prime with first_edge <= j
  for (int j = 0; j < m; ++j) {
    while (c < p && primes[static_cast<std::size_t>(c)].last_edge() < j) ++c;
    while (d + 1 < p &&
           primes[static_cast<std::size_t>(d) + 1].first_edge() <= j)
      ++d;
    // With both window ends strictly increasing, c <= d implies
    // first_edge(c) <= first_edge(d) <= j and last_edge(d) >= last_edge(c)
    // >= j, so the membership set is exactly the range [c, d].
    if (c <= d) out[static_cast<std::size_t>(j)] = {c, d};
  }
  return out;
}

int reduce_edges_into(const graph::CsrView& g, const PrimeSubpath* primes,
                      int p, ReducedEdge* out,
                      const util::CancelToken* cancel) {
  const int m = g.m;
  // Membership pointers advanced inline — the two-pointer sweep of
  // edge_memberships, without materializing the per-edge array.  Both
  // ends of the prime windows rise strictly (prime_subpaths_into ENSUREs
  // it), so each pointer moves at most one prime per edge.
  int c = 0;   // first prime with last_edge >= j
  int d = -1;  // last prime with first_edge <= j
  int count = 0;
  // The open reduced edge stays in registers and is stored once, when the
  // membership range changes.  first_prime −1 means none is open yet.
  ReducedEdge open{-1, -1, -1, 0.0};
  for (int j0 = 0; j0 < m; j0 += util::kPollStride) {
    if (cancel) cancel->poll();
    const int j1 = std::min(m, j0 + util::kPollStride);
    for (int j = j0; j < j1; ++j) {
      c += c < p && primes[c].last_edge() < j;
      d += d + 1 < p && primes[d + 1].first_edge() <= j;
      if (c > d) continue;  // edge belongs to no prime subpath
      const graph::Weight w = g.edge_weight[j];
      if (c == open.first_prime && d == open.last_prime) {
        // Same membership set: keep only the lightest representative
        // (ties keep the earlier edge).
        if (w < open.weight) {
          open.weight = w;
          open.edge = j;
        }
      } else {
        if (open.first_prime >= 0) out[count++] = open;
        open = {j, c, d, w};
      }
    }
  }
  if (open.first_prime >= 0) out[count++] = open;
  if (p > 0) {
    TGP_ENSURE(count > 0, "primes exist but no covered edges");
    TGP_ENSURE(count <= 2 * p - 1, "more than 2p-1 non-redundant edges");
    // Every prime subpath must be covered contiguously.
    TGP_ENSURE(out[0].first_prime == 0, "first prime uncovered");
    TGP_ENSURE(out[count - 1].last_prime == p - 1, "last prime uncovered");
    for (int i = 1; i < count; ++i) {
      TGP_ENSURE(out[i].first_prime <= out[i - 1].last_prime + 1,
                 "prime subpath skipped by reduced edges");
      TGP_ENSURE(out[i].first_prime >= out[i - 1].first_prime &&
                     out[i].last_prime >= out[i - 1].last_prime,
                 "reduced edge ranges not monotone");
    }
  }
  return count;
}

std::vector<ReducedEdge> reduce_edges(
    const graph::Chain& chain, const std::vector<PrimeSubpath>& primes) {
  util::ScratchFrame frame(nullptr);
  graph::CsrView g = graph::csr_from_chain(chain, frame.arena());
  ReducedEdge* buf = frame->alloc_array<ReducedEdge>(
      static_cast<std::size_t>(chain.edge_count()));
  int count = reduce_edges_into(g, primes.data(),
                                static_cast<int>(primes.size()), buf);
  return std::vector<ReducedEdge>(buf, buf + count);
}

}  // namespace tgp::core
