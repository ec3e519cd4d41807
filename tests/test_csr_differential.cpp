// Differential proof that the CSR + arena port preserved solver behavior
// bit for bit.
//
// tests/reference_impl.hpp freezes the pre-port implementations; every
// test here generates a corpus (tree families x K regimes x seeds,
// chains including sorted extremes) and asserts the ported solver
// returns *identical* cut edges and objectives — not merely equivalent
// ones.  Exact double equality is intentional: the port's contract is
// same accumulation order, same comparisons, same results.
//
// Also covers the solvers' cancellation/deadline unwind paths with a
// caller-provided arena, the zero-allocation steady-state guarantee via
// the Arena's heap_block_allocs() hook, and a golden digest of every
// output on instances past the reference corpus's sizes, which must hold
// however many solves run at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "core/bandwidth_min.hpp"
#include "core/bottleneck_min.hpp"
#include "core/chain_bottleneck.hpp"
#include "core/csr_feasible.hpp"
#include "core/nonredundant.hpp"
#include "core/proc_min.hpp"
#include "core/prime_subpaths.hpp"
#include "core/tree_bandwidth.hpp"
#include "graph/csr.hpp"
#include "graph/cutset.hpp"
#include "graph/generators.hpp"
#include "obs/counters.hpp"
#include "reference_impl.hpp"
#include "util/arena.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace tgp::core {
namespace {

constexpr double kKFrac[] = {0.01, 0.15, 0.9};

graph::Weight k_for(double maxw, double total, double frac) {
  return maxw + frac * (total - maxw);
}

/// A K ≥ max_w whose limit K + load_epsilon(total, n) rounds to exactly
/// `limit`, or −1 when no such K exists.
graph::Weight k_with_limit(graph::Weight total, int n, graph::Weight max_w,
                           graph::Weight limit) {
  const graph::Weight eps = graph::load_epsilon(total, n);
  const graph::Weight inf = std::numeric_limits<graph::Weight>::infinity();
  graph::Weight K = limit - eps;
  while (K + eps > limit) K = std::nextafter(K, -inf);
  while (K + eps < limit) K = std::nextafter(K, inf);
  return K + eps == limit && K >= max_w ? K : -1;
}

/// The same for a tree's checker limit.
graph::Weight k_with_limit(const graph::Tree& t, graph::Weight limit) {
  return k_with_limit(t.total_vertex_weight(), t.n(), t.max_vertex_weight(),
                      limit);
}

std::vector<graph::Tree> tree_corpus() {
  std::vector<graph::Tree> out;
  for (int n : {1, 2, 3, 9, 40, 150, 400}) {
    for (unsigned seed : {1u, 2u, 3u}) {
      util::Pcg32 rng(0xD1FFu ^ (seed * 2654435761u) ^
                      static_cast<unsigned>(n));
      out.push_back(graph::random_tree(rng, n,
                                       graph::WeightDist::uniform(1, 50),
                                       graph::WeightDist::uniform(1, 100)));
    }
  }
  // A star and a path: the fanout extremes (subset-enumeration vs ratio
  // paths in tree_bandwidth, deep recursion shapes in rooting).
  {
    util::Pcg32 rng(0x57A2u);
    std::vector<graph::Weight> vw;
    std::vector<int> parent;
    std::vector<graph::Weight> pew;
    for (int v = 0; v < 64; ++v) {
      vw.push_back(static_cast<graph::Weight>(rng.uniform_int(1, 40)));
      parent.push_back(v == 0 ? -1 : 0);
      pew.push_back(static_cast<graph::Weight>(rng.uniform_int(1, 90)));
    }
    out.push_back(graph::Tree::from_parents(std::move(vw), parent, pew));
  }
  {
    util::Pcg32 rng(0x9A7Bu);
    std::vector<graph::Weight> vw;
    std::vector<int> parent;
    std::vector<graph::Weight> pew;
    for (int v = 0; v < 100; ++v) {
      vw.push_back(static_cast<graph::Weight>(rng.uniform_int(1, 40)));
      parent.push_back(v - 1);
      pew.push_back(static_cast<graph::Weight>(rng.uniform_int(1, 90)));
    }
    out.push_back(graph::Tree::from_parents(std::move(vw), parent, pew));
  }
  // Equal edge weights, so the (weight, index) order is a pure tie-break
  // by index: a star, a path, n = 2 and a random tree.
  {
    util::Pcg32 rng(0xE9u);
    const auto vw = graph::WeightDist::uniform(1, 40);
    const auto ew = graph::WeightDist::constant(7);
    out.push_back(graph::star_tree(rng, 50, vw, ew));
    out.push_back(graph::path_tree(graph::random_chain(rng, 80, vw, ew)));
    out.push_back(graph::random_tree(rng, 2, vw, ew));
    out.push_back(graph::random_tree(rng, 300, vw, ew));
  }
  // Sub-unit decimal vertex weights, whose sums depend on their order.
  for (int n : {9, 40, 150, 400}) {
    util::Pcg32 rng(0xDEC1u ^ static_cast<unsigned>(n));
    const graph::Tree shape =
        graph::random_tree(rng, n, graph::WeightDist::constant(1),
                           graph::WeightDist::uniform(1, 100));
    std::vector<graph::Weight> vw;
    for (int v = 0; v < n; ++v)
      vw.push_back(0.1 * static_cast<double>(rng.uniform_int(1, 9)));
    out.push_back(graph::Tree::from_edges(vw, shape.edges()));
  }
  // Every tree above is numbered parent before child: vertex 0 is the BFS
  // root and BFS positions track vertex ids.  A random renumbering of each
  // breaks both, as unlabelled submissions do.
  util::Pcg32 rng(0x2E1Bu);
  const std::size_t built = out.size();
  for (std::size_t i = 0; i < built; ++i)
    out.push_back(graph::relabel_tree(rng, out[i]));
  return out;
}

/// Trees whose edge weights reach every digit of the bottleneck's radix
/// order: neighbours that differ only in bit 0, subnormals (high digits
/// all zero), exponents at both ends of the range, powers of two that
/// share a mantissa, and repeats that tie.  Vertex weights are constant,
/// so at K = max w every edge is cut and the scan's cut is the whole
/// (weight, index) order.
std::vector<graph::Tree> radix_digit_trees() {
  const graph::Weight inf = std::numeric_limits<graph::Weight>::infinity();
  const graph::Weight tiny = std::numeric_limits<graph::Weight>::denorm_min();
  const graph::Weight least_normal =
      std::numeric_limits<graph::Weight>::min();
  std::vector<graph::Weight> pool;
  for (graph::Weight x : {1.0, 3.7, 1e-300, 1e300}) {
    pool.push_back(x);
    pool.push_back(std::nextafter(x, inf));
    pool.push_back(std::nextafter(std::nextafter(x, inf), inf));
    pool.push_back(std::nextafter(x, 0.0));
  }
  for (graph::Weight k : {1.0, 2.0, 3.0, 2048.0, 1e15})
    pool.push_back(k * tiny);
  pool.push_back(std::nextafter(least_normal, 0.0));
  pool.push_back(least_normal);
  for (int e : {-1022, -300, -1, 0, 1, 11, 300, 1023}) {
    pool.push_back(std::ldexp(1.0, e));
    pool.push_back(std::ldexp(1.5, e));
  }
  std::vector<graph::Tree> out;
  util::Pcg32 rng(0x4AD1u);
  for (int n : {2, 40, 150}) {
    const graph::Tree shape =
        graph::random_tree(rng, n, graph::WeightDist::constant(1),
                           graph::WeightDist::constant(1));
    std::vector<graph::TreeEdge> edges = shape.edges();
    for (graph::TreeEdge& e : edges)
      e.weight = pool[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pool.size()) - 1))];
    out.push_back(graph::Tree::from_edges(
        std::vector<graph::Weight>(static_cast<std::size_t>(n), 2.0),
        edges));
  }
  // Every pool value once, in pool order, along a path.
  std::vector<graph::TreeEdge> path;
  for (std::size_t i = 0; i < pool.size(); ++i)
    path.push_back({static_cast<int>(i), static_cast<int>(i) + 1, pool[i]});
  out.push_back(graph::Tree::from_edges(
      std::vector<graph::Weight>(pool.size() + 1, 2.0), path));
  return out;
}

std::vector<graph::Chain> chain_corpus() {
  std::vector<graph::Chain> out;
  for (int n : {1, 2, 3, 17, 100, 512}) {
    for (unsigned seed : {1u, 2u, 3u}) {
      util::Pcg32 rng(0xC0DEu ^ (seed * 40503u) ^ static_cast<unsigned>(n));
      out.push_back(graph::random_chain(rng, n,
                                        graph::WeightDist::uniform(1, 100),
                                        graph::WeightDist::uniform(1, 100)));
    }
  }
  // Monotone extremes: ascending and descending weight ramps stress the
  // prime-subpath two-pointer and the TEMP_S close/collapse order.
  {
    graph::Chain asc, desc;
    for (int i = 0; i < 200; ++i) {
      asc.vertex_weight.push_back(1 + i);
      desc.vertex_weight.push_back(200 - i);
      if (i < 199) {
        asc.edge_weight.push_back(1 + (i % 37));
        desc.edge_weight.push_back(1 + ((199 - i) % 37));
      }
    }
    out.push_back(std::move(asc));
    out.push_back(std::move(desc));
  }
  // Tied edge weights: reduced edges with one membership range keep the
  // earlier edge, and TEMP_S meets equal W values.
  {
    util::Pcg32 rng(0x7135u);
    const auto vw = graph::WeightDist::uniform(1, 100);
    out.push_back(
        graph::random_chain(rng, 300, vw, graph::WeightDist::constant(7)));
    graph::Chain c = graph::random_chain(rng, 300, vw, vw);
    for (graph::Weight& w : c.edge_weight)
      w = static_cast<graph::Weight>(rng.uniform_int(1, 3));
    out.push_back(std::move(c));
  }
  // Vertex weights of 1 mixed with ones near 1000: at a heavy vertex the
  // prime sweep's left end moves past a run of light vertices or past a
  // single heavy one, so it advances 0, 1, 2, 3 and more than 3 steps.
  for (int n : {60, 400}) {
    util::Pcg32 rng(0x1A3Eu ^ static_cast<unsigned>(n));
    graph::Chain c;
    for (int i = 0; i < n; ++i) {
      c.vertex_weight.push_back(rng.coin(0.3) ? rng.uniform_real(990, 1010)
                                              : 1.0);
      if (i + 1 < n)
        c.edge_weight.push_back(
            static_cast<graph::Weight>(rng.uniform_int(1, 100)));
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// The chain tests' bounds: K = max w exactly, and the kKFrac regimes.
std::vector<graph::Weight> chain_bounds(const graph::Chain& c) {
  std::vector<graph::Weight> ks{c.max_vertex_weight()};
  for (double frac : kKFrac)
    ks.push_back(k_for(c.max_vertex_weight(), c.total_vertex_weight(), frac));
  return ks;
}

void expect_same_cut(const graph::Cut& got, const graph::Cut& want,
                     const char* what) {
  ASSERT_EQ(got.edges, want.edges) << what;
}

TEST(CsrDifferential, BottleneckMatchesReference) {
  for (const graph::Tree& t : tree_corpus()) {
    const graph::Weight total = t.total_vertex_weight();
    std::vector<graph::Weight> ks;
    for (double frac : kKFrac)
      ks.push_back(k_for(t.max_vertex_weight(), total, frac));
    // K = total − eps/2 leaves total in (K, K + eps]: the whole tree misses
    // K, yet every union fits, so the cut is exactly one edge, the first of
    // the (weight, index) order.
    const graph::Weight k_within_eps =
        total - 0.5 * graph::load_epsilon(total, t.n());
    if (t.n() > 1) ks.push_back(k_within_eps);
    for (graph::Weight K : ks) {
      auto got = bottleneck_min_bsearch(t, K);
      auto want = ref::bottleneck_min_bsearch(t, K);
      expect_same_cut(got.cut, want.cut, "bsearch cut");
      EXPECT_EQ(got.threshold, want.threshold);
      // The whole-fits check, plus one union pass when that fails.
      EXPECT_EQ(got.feasibility_checks, want.cut.edges.empty() ? 1 : 2);
      if (t.n() <= 150) {
        auto got_scan = bottleneck_min_scan(t, K);
        auto want_scan = ref::bottleneck_min_scan(t, K);
        expect_same_cut(got_scan.cut, want_scan.cut, "scan cut");
        EXPECT_EQ(got_scan.threshold, want_scan.threshold);
        EXPECT_EQ(got_scan.feasibility_checks, want_scan.feasibility_checks);
      }
    }
    if (t.n() > 1) {
      EXPECT_EQ(bottleneck_min_bsearch(t, k_within_eps).cut.edges.size(), 1u)
          << "n=" << t.n();
    }
  }
  for (const graph::Tree& t : radix_digit_trees()) {
    const graph::Weight K = t.max_vertex_weight();
    const auto got_scan = bottleneck_min_scan(t, K);
    const auto want_scan = ref::bottleneck_min_scan(t, K);
    ASSERT_EQ(got_scan.cut.edges.size(),
              static_cast<std::size_t>(t.edge_count()));
    expect_same_cut(got_scan.cut, want_scan.cut, "radix order via scan");
    EXPECT_EQ(got_scan.threshold, want_scan.threshold);
    const auto got = bottleneck_min_bsearch(t, K);
    const auto want = ref::bottleneck_min_bsearch(t, K);
    expect_same_cut(got.cut, want.cut, "radix order via bsearch");
    EXPECT_EQ(got.threshold, want.threshold);
  }
  // Decimal weights, whose sums depend on their order.  On the path
  // 0-1-2-3 (vertex weights 0.5/0.1/0.2/0.3, edge weights 1/2/3) with a K
  // whose limit K + eps is exactly 0.6, unions heaviest first weigh
  // {1,2,3} as 0.1 + (0.2 + 0.3) = 0.6, but the feasibility checker sums
  // (0.1 + 0.2) + 0.3 > 0.6.  The checker decides: cut edges 0 and 1.
  const graph::Tree path = graph::Tree::from_edges(
      {0.5, 0.1, 0.2, 0.3}, {{0, 1, 1}, {1, 2, 2}, {2, 3, 3}});
  const graph::Weight K = k_with_limit(path, 0.6);
  ASSERT_GE(K, 0);
  const auto got = bottleneck_min_bsearch(path, K);
  const auto want = ref::bottleneck_min_bsearch(path, K);
  const auto scan = bottleneck_min_scan(path, K);
  expect_same_cut(got.cut, want.cut, "decimal path vs reference");
  expect_same_cut(got.cut, scan.cut.canonical(), "decimal path vs scan");
  EXPECT_EQ(got.threshold, want.threshold);
  EXPECT_EQ(got.threshold, scan.threshold);
  EXPECT_EQ(got.threshold, 2);
}

// Limits aimed at every component weight that some prefix of the edge
// order leaves, and at the doubles on either side of it, so unions land
// on the limit from above and below.  Decimal vertex weights make a
// component's sum depend on its order; the union pass must side with the
// feasibility checker, which the scan (sharing that checker) follows.
TEST(CsrDifferential, BottleneckRoundingBoundariesMatchScan) {
  const graph::Weight inf = std::numeric_limits<graph::Weight>::infinity();
  int aimed = 0;
  for (unsigned seed = 1; seed <= 30; ++seed) {
    util::Pcg32 rng(0xB0DEu ^ (seed * 2654435761u));
    const int n = 3 + static_cast<int>(seed % 8);
    const graph::Tree shape =
        graph::random_tree(rng, n, graph::WeightDist::constant(1),
                           graph::WeightDist::uniform(1, 20));
    std::vector<graph::Weight> vw;
    for (int v = 0; v < n; ++v)
      vw.push_back(0.1 * static_cast<double>(rng.uniform_int(1, 9)));
    const graph::Tree t = graph::Tree::from_edges(vw, shape.edges());
    graph::Cut prefix;
    for (int e : ref::detail::edges_by_weight(t)) {
      prefix.edges.push_back(e);
      for (graph::Weight w : graph::tree_component_weights(t, prefix)) {
        graph::Weight limit = w;
        for (int s = 0; s < 3; ++s) limit = std::nextafter(limit, -inf);
        for (int s = 0; s < 7; ++s, limit = std::nextafter(limit, inf)) {
          const graph::Weight K = k_with_limit(t, limit);
          if (K < 0) continue;
          ++aimed;
          const auto got = bottleneck_min_bsearch(t, K);
          const auto scan = bottleneck_min_scan(t, K);
          ASSERT_EQ(got.threshold, scan.threshold)
              << "seed " << seed << " K " << K;
          expect_same_cut(got.cut, scan.cut.canonical(), "boundary vs scan");
        }
      }
    }
  }
  EXPECT_GT(aimed, 1000);
}

TEST(CsrDifferential, ProcMinMatchesReference) {
  for (const graph::Tree& t : tree_corpus()) {
    for (double frac : kKFrac) {
      graph::Weight K =
          k_for(t.max_vertex_weight(), t.total_vertex_weight(), frac);
      auto got = proc_min(t, K);
      auto want = ref::proc_min(t, K);
      expect_same_cut(got.cut, want.cut, "procmin cut");
      EXPECT_EQ(got.components, want.components);
    }
  }
}

TEST(CsrDifferential, TreeBandwidthMatchesReference) {
  for (const graph::Tree& t : tree_corpus()) {
    for (double frac : kKFrac) {
      graph::Weight K =
          k_for(t.max_vertex_weight(), t.total_vertex_weight(), frac);
      auto got = tree_bandwidth_greedy(t, K);
      auto want = ref::tree_bandwidth_greedy(t, K);
      expect_same_cut(got.cut, want.cut, "greedy cut");
      EXPECT_EQ(got.cut_weight, want.cut_weight);  // exact: same order
    }
  }
}

TEST(CsrDifferential, PrimeSubpathsAndReducedEdgesMatchReference) {
  for (const graph::Chain& c : chain_corpus()) {
    for (graph::Weight K : chain_bounds(c)) {
      auto got = prime_subpaths(c, K);
      auto want = ref::prime_subpaths(c, K);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first_vertex, want[i].first_vertex);
        EXPECT_EQ(got[i].last_vertex, want[i].last_vertex);
        EXPECT_EQ(got[i].weight, want[i].weight);
      }
      auto got_e = reduce_edges(c, got);
      auto want_e = ref::reduce_edges(c, want);
      ASSERT_EQ(got_e.size(), want_e.size());
      for (std::size_t i = 0; i < got_e.size(); ++i) {
        EXPECT_EQ(got_e[i].edge, want_e[i].edge);
        EXPECT_EQ(got_e[i].first_prime, want_e[i].first_prime);
        EXPECT_EQ(got_e[i].last_prime, want_e[i].last_prime);
        EXPECT_EQ(got_e[i].weight, want_e[i].weight);
      }
    }
  }
}

TEST(CsrDifferential, ChainSolversMatchReference) {
  for (const graph::Chain& c : chain_corpus()) {
    for (graph::Weight K : chain_bounds(c)) {
      auto got_b = chain_bottleneck_min(c, K);
      auto want_b = ref::chain_bottleneck_min(c, K);
      expect_same_cut(got_b.cut, want_b.cut, "chain bottleneck cut");
      EXPECT_EQ(got_b.threshold, want_b.threshold);

      auto got_w = bandwidth_min_temps(c, K);
      auto want_w = ref::bandwidth_min_temps(c, K);
      expect_same_cut(got_w.cut, want_w.cut, "bandwidth cut");
      EXPECT_EQ(got_w.cut_weight, want_w.cut_weight);  // exact: same order
    }
  }
}

/// chain_bottleneck_min takes each window's minimum from two stacks: the
/// suffix minima of a front part, rebuilt over the whole window when a
/// window starts past it, and a running minimum of the back part.  The
/// reference's monotone deque keeps the last edge holding the minimum,
/// and so must the two stacks.  These chains aim at that tie rule and at
/// the rebuilds.
TEST(CsrDifferential, ChainBottleneckTwoStackMatchesReference) {
  auto integer_edges = [](util::Pcg32& rng, graph::Chain& c, int hi) {
    for (graph::Weight& w : c.edge_weight)
      w = static_cast<graph::Weight>(rng.uniform_int(1, hi));
  };
  std::vector<std::pair<graph::Chain, std::vector<graph::Weight>>> cases;
  // Every edge weight equal: each window's minimum is its last edge.
  for (int n : {2, 9, 500}) {
    util::Pcg32 rng(0x2571u ^ static_cast<unsigned>(n));
    graph::Chain c = graph::random_chain(rng, n,
                                         graph::WeightDist::uniform(1, 100),
                                         graph::WeightDist::constant(4));
    std::vector<graph::Weight> ks = chain_bounds(c);
    cases.push_back({std::move(c), std::move(ks)});
  }
  // Unit vertex weights under K = span: every prime holds `span` edges,
  // and the front is rebuilt at the multiples of span, with the back
  // starting there.  A weight-1 edge on each side of every such split
  // puts equal minima in the front and the back of the windows that
  // straddle it; the other edges weigh 2..9, so ties also fall inside
  // one side.
  for (int span : {1, 2, 3, 8, 13}) {
    util::Pcg32 rng(0x5B17u ^ static_cast<unsigned>(span));
    graph::Chain c;
    c.vertex_weight.assign(40 * static_cast<std::size_t>(span) + 5, 1.0);
    c.edge_weight.resize(c.vertex_weight.size() - 1);
    integer_edges(rng, c, 9);
    for (graph::Weight& w : c.edge_weight) w += 1;
    for (int s = span, t = 0; s < c.n() - 1; s += span, ++t) {
      c.edge_weight[static_cast<std::size_t>(s - 1 - t % std::min(span, 3))] =
          1;
      const int after = s + t % std::min(span, 4);
      if (after < c.n() - 1) c.edge_weight[static_cast<std::size_t>(after)] = 1;
    }
    cases.push_back({std::move(c), {static_cast<graph::Weight>(span)}});
  }
  // Past three poll strides: at the mid bound the front is rebuilt many
  // times within a poll block and some rebuild spans a block boundary; at
  // the loose one each front is longer than a block.  Integer edge
  // weights 1..20 keep ties common.
  {
    util::Pcg32 rng(0x3B0Cu);
    graph::Chain c = graph::random_chain(
        rng, 3 * util::kPollStride + 4099, graph::WeightDist::uniform(1, 100),
        graph::WeightDist::constant(1));
    integer_edges(rng, c, 20);
    const graph::Weight maxw = c.max_vertex_weight();
    const graph::Weight total = c.total_vertex_weight();
    cases.push_back(
        {std::move(c), {k_for(maxw, total, 0.005), k_for(maxw, total, 0.5)}});
  }
  for (const auto& [c, ks] : cases) {
    for (graph::Weight K : ks) {
      const BottleneckResult got = chain_bottleneck_min(c, K);
      const BottleneckResult want = ref::chain_bottleneck_min(c, K);
      ASSERT_FALSE(want.cut.empty()) << "n " << c.n() << " K " << K;
      expect_same_cut(got.cut, want.cut, "chain bottleneck cut");
      EXPECT_EQ(got.threshold, want.threshold) << "n " << c.n() << " K " << K;
    }
  }
}

TEST(CsrDifferential, GallopPolicyUnchangedByPort) {
  for (const graph::Chain& c : chain_corpus()) {
    for (graph::Weight K : chain_bounds(c)) {
      auto binary = bandwidth_min_temps(c, K);
      auto gallop =
          bandwidth_min_temps(c, K, nullptr, SearchPolicy::kGallop);
      auto want = ref::bandwidth_min_temps(c, K);
      expect_same_cut(gallop.cut, binary.cut, "gallop vs binary");
      expect_same_cut(gallop.cut, want.cut, "gallop vs reference");
      EXPECT_EQ(gallop.cut_weight, binary.cut_weight);
      EXPECT_EQ(gallop.cut_weight, want.cut_weight);
    }
  }
}

// ---- Cancellation and deadline unwind with a caller arena ------------------

TEST(CsrDifferential, PreCancelledTokenUnwindsCleanly) {
  util::Pcg32 rng(0xAB12u);
  graph::Tree t = graph::random_tree(rng, 600,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  graph::Chain c = graph::random_chain(rng, 600,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  graph::Weight Kt =
      k_for(t.max_vertex_weight(), t.total_vertex_weight(), 0.01);
  graph::Weight Kc =
      k_for(c.max_vertex_weight(), c.total_vertex_weight(), 0.01);

  util::CancelToken token;
  token.request_cancel();
  util::Arena arena;
  EXPECT_THROW(bottleneck_min_bsearch(t, Kt, &token, &arena),
               util::CancelledError);
  EXPECT_THROW(proc_min(t, Kt, nullptr, &token, &arena),
               util::CancelledError);
  EXPECT_THROW(bandwidth_min_temps(c, Kc, nullptr, SearchPolicy::kBinary,
                                   &token, &arena),
               util::CancelledError);
  EXPECT_THROW(chain_bottleneck_min(c, Kc, &arena, &token),
               util::CancelledError);
  EXPECT_THROW(tree_bandwidth_greedy(t, Kt, &token, &arena),
               util::CancelledError);
  {
    // The chain kernels' sweeps themselves, past one poll stride.
    graph::Chain big = graph::random_chain(
        rng, 3 * util::kPollStride + 5, graph::WeightDist::uniform(1, 100),
        graph::WeightDist::uniform(1, 100));
    const graph::Weight Kb =
        k_for(big.max_vertex_weight(), big.total_vertex_weight(), 0.01);
    util::ScratchFrame frame(&arena);
    graph::CsrView g = graph::csr_from_chain(big, frame.arena());
    PrimeSubpath* primes =
        frame->alloc_array<PrimeSubpath>(static_cast<std::size_t>(g.n));
    ReducedEdge* reduced =
        frame->alloc_array<ReducedEdge>(static_cast<std::size_t>(g.m));
    EXPECT_THROW(prime_subpaths_into(g, Kb, primes, &token),
                 util::CancelledError);
    const int p = prime_subpaths_into(g, Kb, primes);
    ASSERT_GT(p, 0);
    EXPECT_THROW(reduce_edges_into(g, primes, p, reduced, &token),
                 util::CancelledError);
  }
  // The ScratchFrame must release on unwind: the arena is reusable and a
  // fresh solve still matches the reference.
  auto got = bandwidth_min_temps(c, Kc, nullptr, SearchPolicy::kBinary,
                                 nullptr, &arena);
  auto want = ref::bandwidth_min_temps(c, Kc);
  EXPECT_EQ(got.cut.edges, want.cut.edges);
}

TEST(CsrDifferential, ExpiredDeadlineReportsDeadlineReason) {
  util::Pcg32 rng(0xAB13u);
  graph::Tree t = graph::random_tree(rng, 600,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  graph::Weight K =
      k_for(t.max_vertex_weight(), t.total_vertex_weight(), 0.01);
  util::CancelToken token;
  token.set_deadline(util::CancelToken::Clock::now() -
                     std::chrono::milliseconds(1));
  util::Arena arena;
  try {
    proc_min(t, K, nullptr, &token, &arena);
    FAIL() << "expected CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.reason, util::CancelReason::kDeadline);
  }
}

// ---- Zero-allocation steady state ------------------------------------------

TEST(CsrDifferential, SteadyStateSolvesAreArenaOnly) {
  util::Pcg32 rng(0xF00Du);
  graph::Tree t = graph::random_tree(rng, 2000,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  graph::Chain c = graph::random_chain(rng, 2000,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  graph::Weight Kt =
      k_for(t.max_vertex_weight(), t.total_vertex_weight(), 0.05);
  graph::Weight Kc =
      k_for(c.max_vertex_weight(), c.total_vertex_weight(), 0.05);

  auto run_all = [](const graph::Tree& t, graph::Weight Kt,
                    const graph::Chain& c, graph::Weight Kc,
                    util::Arena& arena) {
    (void)bottleneck_min_bsearch(t, Kt, nullptr, &arena);
    (void)proc_min(t, Kt, nullptr, nullptr, &arena);
    (void)tree_bandwidth_greedy(t, Kt, nullptr, &arena);
    (void)bandwidth_min_temps(c, Kc, nullptr, SearchPolicy::kBinary, nullptr,
                              &arena);
    (void)chain_bottleneck_min(c, Kc, &arena);
  };
  util::Arena arena;
  run_all(t, Kt, c, Kc, arena);  // warm: the arena grows to the working set
  std::uint64_t blocks = arena.heap_block_allocs();
  for (int i = 0; i < 3; ++i) run_all(t, Kt, c, Kc, arena);
  EXPECT_EQ(arena.heap_block_allocs(), blocks)
      << "steady-state solver scratch must not grow the arena";

  // Past one poll stride, on a fresh thread: every byte of scratch comes
  // from the caller's arena, so arena_bytes_peak sees it, and the
  // thread's fallback arena (which nothing accounts for) stays empty.
  graph::Tree big_t = graph::random_tree(rng, 2 * util::kPollStride + 7,
                                         graph::WeightDist::uniform(1, 50),
                                         graph::WeightDist::uniform(1, 100));
  graph::Chain big_c = graph::random_chain(
      rng, 3 * util::kPollStride + 3, graph::WeightDist::uniform(1, 100),
      graph::WeightDist::uniform(1, 100));
  const graph::Weight big_Kt = k_for(big_t.max_vertex_weight(),
                                     big_t.total_vertex_weight(), 0.05);
  const graph::Weight big_Kc = k_for(big_c.max_vertex_weight(),
                                     big_c.total_vertex_weight(), 0.005);
  std::size_t fallback_high_water = 1;
  std::thread([&] {
    util::Arena own;
    run_all(big_t, big_Kt, big_c, big_Kc, own);
    fallback_high_water =
        util::ScratchFrame::thread_arena().high_water_bytes();
  }).join();
  EXPECT_EQ(fallback_high_water, 0u)
      << "solver scratch escaped the caller's arena";
}

// ---- Outputs past the reference corpus's sizes -----------------------------
//
// The frozen-reference corpus stops at n = 512, below one 16,384-item
// poll stride and one prefix block.  These pin the outputs above both.

/// csr_from_chain's prefix is the 16,384-element blocked fold: each block
/// folds left to right from its base, and the bases fold the blocks' own
/// sums left to right.  That association fixes the rounding of every
/// window sum, so the cuts depend on it.
TEST(CsrDifferential, ChainPrefixIsTheBlockedFold) {
  constexpr int kBlock = 16384;
  util::Pcg32 rng(0x5CA2u);
  for (int n : {1, 100, kBlock, kBlock + 1, 5 * kBlock + 371}) {
    graph::Chain c;
    for (int i = 0; i < n; ++i)
      c.vertex_weight.push_back(rng.uniform_real(0.001, 100.0));
    c.edge_weight.assign(static_cast<std::size_t>(n - 1), 1.0);
    std::vector<double> want(static_cast<std::size_t>(n) + 1, 0.0);
    double base = 0.0;
    for (int lo = 0; lo < n; lo += kBlock) {
      const int hi = std::min(n, lo + kBlock);
      double sum = 0.0;
      for (int i = lo; i < hi; ++i) sum += c.vertex_weight[i];
      double acc = base;
      for (int i = lo; i < hi; ++i) want[i + 1] = acc += c.vertex_weight[i];
      base += sum;
    }
    if (n <= kBlock) {
      // One block is the plain left-to-right fold; the frozen-reference
      // corpus relies on this.
      double acc = 0.0;
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(want[i + 1], acc += c.vertex_weight[i]) << "n " << n;
    }
    util::Arena arena;
    graph::CsrView g = graph::csr_from_chain(c, arena);
    for (int i = 0; i <= n; ++i)
      ASSERT_EQ(g.prefix[i], want[i]) << "n " << n << " i " << i;
  }
}

// ---- The BFS layout and its bottom-up feasibility sweep --------------------

TEST(TreeLayout, ParentsPrecedeChildrenInAdjacencyOrderBlocks) {
  for (const graph::Tree& t : tree_corpus()) {
    util::Arena arena;
    const graph::TreeLayout L = graph::lay_out_tree(t, arena);
    ASSERT_EQ(L.n, t.n());
    EXPECT_EQ(L.vertex[0], 0);
    EXPECT_EQ(L.parent[0], -1);
    EXPECT_EQ(L.edge[0], -1);
    EXPECT_EQ(L.first[0], 1);
    EXPECT_EQ(L.first[L.n], L.n);
    std::vector<int> position(static_cast<std::size_t>(t.n()), -1);
    for (int p = 0; p < L.n; ++p) {
      ASSERT_EQ(position[static_cast<std::size_t>(L.vertex[p])], -1)
          << "vertex listed twice";
      position[static_cast<std::size_t>(L.vertex[p])] = p;
      EXPECT_EQ(L.vertex_weight[p], t.vertex_weight(L.vertex[p]));
      if (p == 0) continue;
      EXPECT_LT(L.parent[p], p);
      EXPECT_GE(L.parent[p], L.parent[p - 1]);
      // edge[p] joins vertex[p] to its parent's vertex.
      const graph::TreeEdge& e = t.edge(L.edge[p]);
      const int up = L.vertex[L.parent[p]];
      EXPECT_TRUE((e.u == L.vertex[p] && e.v == up) ||
                  (e.v == L.vertex[p] && e.u == up))
          << "position " << p;
      EXPECT_EQ(L.edge_weight[p], e.weight);
    }
    for (int p = 0; p < L.n; ++p) {
      // The child block is the adjacency list minus the parent edge.
      std::vector<std::pair<int, int>> want, got;
      for (const auto& [u, e] : t.neighbors(L.vertex[p]))
        if (e != L.edge[p]) want.push_back({u, e});
      for (int c = L.first[p]; c < L.first[p + 1]; ++c) {
        EXPECT_EQ(L.parent[c], p);
        got.push_back({L.vertex[c], L.edge[c]});
      }
      EXPECT_EQ(got, want) << "position " << p;
    }
  }
}

TEST(TreeLayout, TotalIsTheBlockedFold) {
  constexpr int kBlock = 16384;
  util::Pcg32 rng(0x7074u);
  for (int n : {kBlock + 1, 5 * kBlock + 371}) {
    const graph::Tree shape =
        graph::random_tree(rng, n, graph::WeightDist::constant(1),
                           graph::WeightDist::uniform(1, 100));
    std::vector<graph::Weight> vw;
    for (int v = 0; v < n; ++v)
      vw.push_back(0.1 * static_cast<double>(rng.uniform_int(1, 9)));
    const graph::Tree t = graph::Tree::from_edges(vw, shape.edges());
    util::Arena arena;
    const graph::Weight total = graph::lay_out_tree(t, arena).total;
    EXPECT_EQ(total, graph::csr_from_tree(t, arena).total_vertex_weight())
        << "n " << n;
    if (n > 2 * kBlock) {
      // The plain fold rounds differently here, so the check above tells
      // the two apart.
      EXPECT_NE(total, t.total_vertex_weight()) << "n " << n;
    }
  }
}

/// lay_out_tree against a plain vector-queue BFS from vertex 0, array for
/// array.  The layout's BFS prefetches from its own queue some positions
/// ahead of the cursor, so it is run on shapes where the queue runs far
/// ahead (a star: one child block of n − 1) and barely ahead (a path: at
/// most two positions, numbered from an end and from a random vertex),
/// over arena memory that holds a wild vertex id where the queue is not
/// yet written.
TEST(TreeLayout, MatchesPlainBfs) {
  util::Pcg32 rng(0x1B75u);
  const auto vw = graph::WeightDist::uniform(1, 50);
  const auto ew = graph::WeightDist::uniform(1, 100);
  const graph::Tree path =
      graph::path_tree(graph::random_chain(rng, 3000, vw, ew));
  std::vector<graph::Tree> trees;
  trees.push_back(
      graph::relabel_tree(rng, graph::random_tree(rng, 5000, vw, ew)));
  trees.push_back(
      graph::relabel_tree(rng, graph::random_binary_tree(rng, 5000, vw, ew)));
  trees.push_back(graph::star_tree(rng, 3000, vw, ew));
  trees.push_back(path);
  trees.push_back(graph::relabel_tree(rng, path));
  trees.push_back(graph::Tree::from_edges({7}, {}));
  for (const graph::Tree& t : trees) {
    const int n = t.n();
    std::vector<int> vertex{0}, parent{-1}, edge{-1}, first;
    for (std::size_t p = 0; p < vertex.size(); ++p) {
      first.push_back(static_cast<int>(vertex.size()));
      for (const auto& [u, e] : t.neighbors(vertex[p])) {
        if (e == edge[p]) continue;
        vertex.push_back(u);
        parent.push_back(static_cast<int>(p));
        edge.push_back(e);
      }
    }
    first.push_back(static_cast<int>(vertex.size()));
    ASSERT_EQ(static_cast<int>(vertex.size()), n);
    util::Arena arena;
    {
      // Fill the memory the layout reuses with a wild vertex id, so that
      // reading a queue slot the BFS has not written yet faults.
      util::ScratchFrame poison(&arena);
      const std::size_t count = 8 * static_cast<std::size_t>(n) + 64;
      std::fill_n(poison->alloc_array<int>(count), count,
                  std::numeric_limits<int>::max());
    }
    const graph::TreeLayout L = graph::lay_out_tree(t, arena);
    ASSERT_EQ(L.n, n);
    for (int p = 0; p < n; ++p) {
      const std::size_t up = static_cast<std::size_t>(p);
      ASSERT_EQ(L.vertex[p], vertex[up]) << "n " << n << " position " << p;
      ASSERT_EQ(L.parent[p], parent[up]) << "n " << n << " position " << p;
      ASSERT_EQ(L.edge[p], edge[up]) << "n " << n << " position " << p;
      ASSERT_EQ(L.vertex_weight[p], t.vertex_weight(vertex[up]))
          << "n " << n << " position " << p;
      ASSERT_EQ(L.edge_weight[p], p == 0 ? 0.0 : t.edge(edge[up]).weight)
          << "n " << n << " position " << p;
    }
    for (int p = 0; p <= n; ++p)
      ASSERT_EQ(L.first[p], first[static_cast<std::size_t>(p)])
          << "n " << n << " position " << p;
  }
}

graph::Cut cut_of(std::initializer_list<int> edges) {
  graph::Cut cut;
  cut.edges = edges;
  return cut;
}

// The path 0-1-2-3-4-5 with edge i joining i and i+1, laid out from 0.
TEST(FeasibleBottomUp, RootComponentAloneOverLimit) {
  const graph::Tree t = graph::Tree::from_edges(
      {4, 4, 4, 1, 1, 1},
      {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1}});
  util::Arena arena;
  const graph::TreeLayout L = graph::lay_out_tree(t, arena);
  // {0,1,2} weighs 12 and {3,4,5} weighs 3.
  EXPECT_FALSE(feasible_bottom_up(L, cut_of({2}).edges, 11, arena));
  EXPECT_TRUE(feasible_bottom_up(L, cut_of({2}).edges, 12, arena));
  EXPECT_TRUE(feasible_bottom_up(L, cut_of({0, 2}).edges, 11, arena));
  EXPECT_FALSE(graph::tree_cut_feasible(t, cut_of({2}), 11));
}

TEST(FeasibleBottomUp, OneDeepComponentAloneOverLimit) {
  const graph::Tree t = graph::Tree::from_edges(
      {1, 1, 5, 5, 1, 1},
      {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1}});
  util::Arena arena;
  const graph::TreeLayout L = graph::lay_out_tree(t, arena);
  // {0,1} weighs 2, {2,3} weighs 10 and {4,5} weighs 2.
  EXPECT_FALSE(feasible_bottom_up(L, cut_of({1, 3}).edges, 9, arena));
  EXPECT_TRUE(feasible_bottom_up(L, cut_of({1, 3}).edges, 10, arena));
  EXPECT_TRUE(feasible_bottom_up(L, cut_of({1, 2, 3}).edges, 9, arena));
  // The same on a star, where the heavy component is one leaf's.
  const graph::Tree star = graph::Tree::from_edges(
      {1, 2, 9, 2}, {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}});
  const graph::TreeLayout S = graph::lay_out_tree(star, arena);
  EXPECT_FALSE(feasible_bottom_up(S, cut_of({0, 1, 2}).edges, 8, arena));
  EXPECT_TRUE(feasible_bottom_up(S, cut_of({1}).edges, 9, arena));
}

TEST(FeasibleBottomUp, ComponentAtExactlyKPlusEpsFits) {
  const graph::Tree t = graph::Tree::from_edges(
      {3, 4, 3, 2, 5}, {{0, 1, 1}, {1, 2, 1}, {1, 3, 1}, {3, 4, 1}});
  // Cutting edge 2 leaves {0,1,2} weighing 10 and {3,4} weighing 7.
  const graph::Weight K = k_with_limit(t, 10.0);
  ASSERT_GE(K, 0);
  const graph::Weight limit =
      K + graph::load_epsilon(t.total_vertex_weight(), t.n());
  ASSERT_EQ(limit, 10.0);
  util::Arena arena;
  const graph::TreeLayout L = graph::lay_out_tree(t, arena);
  EXPECT_TRUE(feasible_bottom_up(L, cut_of({2}).edges, limit, arena));
  const graph::Weight below =
      std::nextafter(limit, -std::numeric_limits<graph::Weight>::infinity());
  EXPECT_FALSE(feasible_bottom_up(L, cut_of({2}).edges, below, arena));
}

// With integer weights every summation order is exact, so the sweep and
// the flood must agree on every cut; random cuts of random renumberings.
TEST(FeasibleBottomUp, AgreesWithFloodOnIntegerWeights) {
  util::Pcg32 rng(0xF10Du);
  int infeasible = 0;
  for (const graph::Tree& t : tree_corpus()) {
    const std::vector<graph::Weight>& vw = t.vertex_weights();
    if (t.n() < 2 || !std::all_of(vw.begin(), vw.end(), [](graph::Weight w) {
          return w == std::floor(w);
        }))
      continue;
    util::Arena arena;
    const graph::TreeLayout L = graph::lay_out_tree(t, arena);
    for (int trial = 0; trial < 8; ++trial) {
      graph::Cut cut;
      for (int e = 0; e < t.edge_count(); ++e)
        if (rng.coin(0.2)) cut.edges.push_back(e);
      const graph::Weight K = t.max_vertex_weight() +
                              rng.uniform_real(0, t.total_vertex_weight() / 3);
      const graph::Weight limit =
          K + graph::load_epsilon(t.total_vertex_weight(), t.n());
      const bool want = graph::tree_cut_feasible(t, cut, K);
      EXPECT_EQ(feasible_bottom_up(L, cut.edges, limit, arena), want);
      infeasible += want ? 0 : 1;
    }
  }
  EXPECT_GT(infeasible, 20);
}

/// Component weights of t − cut, each summed in the checker's flood order:
/// depth first from the component's lowest vertex, neighbours in adjacency
/// order, as each vertex leaves the stack.
std::vector<graph::Weight> flood_order_weights(const graph::Tree& t,
                                               const graph::Cut& cut) {
  std::vector<char> removed(static_cast<std::size_t>(t.edge_count()), 0);
  for (int e : cut.edges) removed[static_cast<std::size_t>(e)] = 1;
  std::vector<char> seen(static_cast<std::size_t>(t.n()), 0);
  std::vector<graph::Weight> out;
  std::vector<int> stack;
  for (int s = 0; s < t.n(); ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    seen[static_cast<std::size_t>(s)] = 1;
    stack.push_back(s);
    graph::Weight w = 0;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      w += t.vertex_weight(v);
      for (auto [u, e] : t.neighbors(v)) {
        if (removed[static_cast<std::size_t>(e)] ||
            seen[static_cast<std::size_t>(u)])
          continue;
        seen[static_cast<std::size_t>(u)] = 1;
        stack.push_back(u);
      }
    }
    out.push_back(w);
  }
  return out;
}

// The re-check weighs components by a union pass and floods only loads
// within eps/2 of the limit, in the checker's order.  Limits aimed at
// every component's flood-order sum, and at the doubles on either side,
// must get the flood's answer, which graph::tree_cut_feasible gives.
// Decimal weights make a component's sum depend on its order.
TEST(FeasibleWithRemoved, MatchesFloodAtComponentSums) {
  const graph::Weight inf = std::numeric_limits<graph::Weight>::infinity();
  util::Pcg32 rng(0xF1DAu);
  int aimed = 0, reordered = 0;
  for (const graph::Tree& t : tree_corpus()) {
    const std::vector<graph::Weight>& vw = t.vertex_weights();
    if (std::all_of(vw.begin(), vw.end(), [](graph::Weight w) {
          return w == std::floor(w);
        }))
      continue;
    util::Arena arena;
    const graph::CsrView g = graph::csr_from_tree(t, arena);
    for (double frac : {0.05, 0.15, 0.3, 0.6}) {
      graph::Cut cut;
      for (int e = 0; e < t.edge_count(); ++e)
        if (rng.coin(frac)) cut.edges.push_back(e);
      util::ScratchFrame frame(&arena);
      ComponentScratch s(g, frame.arena());
      for (int e : cut.edges) s.removed[e] = 1;
      const std::vector<graph::Weight> flood = flood_order_weights(t, cut);
      const std::vector<graph::Weight> by_vertex =
          graph::tree_component_weights(t, cut);
      ASSERT_EQ(flood.size(), by_vertex.size());
      for (std::size_t c = 0; c < flood.size(); ++c)
        reordered += flood[c] != by_vertex[c];
      for (graph::Weight w : flood) {
        graph::Weight limit = w;
        for (int step = 0; step < 3; ++step)
          limit = std::nextafter(limit, -inf);
        for (int step = 0; step < 7;
             ++step, limit = std::nextafter(limit, inf)) {
          const graph::Weight K = k_with_limit(t, limit);
          if (K < 0) continue;
          ++aimed;
          ASSERT_EQ(feasible_with_removed(g, s, limit),
                    graph::tree_cut_feasible(t, cut, K))
              << "n=" << t.n() << " limit " << limit;
        }
      }
    }
  }
  EXPECT_GT(reordered, 0);
  EXPECT_GT(aimed, 1000);
}

/// FNV-1a over explicitly listed fields (no struct padding).
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  template <typename T>
  void add(T v) {
    unsigned char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    for (unsigned char x : b) {
      h ^= x;
      h *= 0x100000001b3ull;
    }
  }
  void add_cut(const graph::Cut& cut, graph::Weight objective) {
    add(cut.edges.size());
    for (int e : cut.edges) add(e);
    add(objective);
  }
};

struct LargeInstance {
  graph::Chain c;
  graph::Tree t;
  graph::Weight Kc, Kt;
};

LargeInstance large_instance(std::uint32_t seed, int chain_n, int tree_n) {
  util::Pcg32 rng(seed);
  graph::Chain c = graph::random_chain(rng, chain_n,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  graph::Tree t = graph::random_tree(rng, tree_n,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  const graph::Weight Kc =
      k_for(c.max_vertex_weight(), c.total_vertex_weight(), 0.005);
  const graph::Weight Kt =
      k_for(t.max_vertex_weight(), t.total_vertex_weight(), 0.01);
  return {std::move(c), std::move(t), Kc, Kt};
}

struct LargeRun {
  std::uint64_t digest = 0;
  obs::SolveCounters counters;  ///< arena_bytes_peak as a service job sets it
};

/// Every output of the chain and tree kernels, solved with a fresh arena:
/// the primes, the reduced edges, five cuts with their objectives, and the
/// deterministic counters, hashed in that order.
LargeRun solve_all(const LargeInstance& in) {
  LargeRun out;
  Digest d;
  {
    obs::CounterScope scope(&out.counters);
    util::Arena arena;
    const std::vector<PrimeSubpath> primes = prime_subpaths(in.c, in.Kc);
    d.add(primes.size());
    for (const PrimeSubpath& p : primes) {
      d.add(p.first_vertex);
      d.add(p.last_vertex);
      d.add(p.weight);
    }
    const std::vector<ReducedEdge> reduced = reduce_edges(in.c, primes);
    d.add(reduced.size());
    for (const ReducedEdge& r : reduced) {
      d.add(r.edge);
      d.add(r.first_prime);
      d.add(r.last_prime);
      d.add(r.weight);
    }
    auto temps = bandwidth_min_temps(in.c, in.Kc, nullptr,
                                     SearchPolicy::kBinary, nullptr, &arena);
    d.add_cut(temps.cut, temps.cut_weight);
    auto cbn = chain_bottleneck_min(in.c, in.Kc, &arena);
    d.add_cut(cbn.cut, cbn.threshold);
    auto bs = bottleneck_min_bsearch(in.t, in.Kt, nullptr, &arena);
    d.add_cut(bs.cut, bs.threshold);
    auto pm = proc_min(in.t, in.Kt, nullptr, nullptr, &arena);
    d.add_cut(pm.cut, static_cast<graph::Weight>(pm.components));
    auto greedy = tree_bandwidth_greedy(in.t, in.Kt, nullptr, &arena);
    d.add_cut(greedy.cut, greedy.cut_weight);
    out.counters.arena_bytes_peak = arena.high_water_bytes();
  }
  d.add(out.counters.oracle_calls);
  d.add(out.counters.bsearch_probes);
  d.add(out.counters.gallop_probes);
  d.add(out.counters.prime_subpaths);
  d.add(out.counters.nonredundant_edges);
  d.add(out.counters.temps_peak_rows);
  out.digest = d.h;
  return out;
}

// The constant was captured by linking this digest code against the
// build that ran these kernels as 16,384-item blocks (serially and on
// thread teams, with bit-identical results).  The single sweeps that
// replaced the blocks reproduce it.
TEST(CsrDifferential, LargeInstanceGoldenDigest) {
  EXPECT_EQ(solve_all(large_instance(0x9A77u, 50000, 60000)).digest,
            0x2cc0f36139b060cfull);
}

/// csr_from_chain's prefix block.
constexpr int kPrefixBlock = 16384;

/// 2·16,384 + 7 vertices, light (about 1e-10) at even positions and heavy
/// (about 1e10) at odd ones.  The third prefix block starts from the sum
/// of the first two blocks' own folds, which rounds apart from the second
/// block's running fold, so the prefix can step down at that boundary;
/// the light vertex there leaves the step showing.
graph::Chain block_step_chain(std::uint32_t seed) {
  util::Pcg32 rng(seed);
  graph::Chain c;
  for (int i = 0; i < 2 * kPrefixBlock + 7; ++i) {
    c.vertex_weight.push_back(i % 2 == 0 ? rng.uniform_real(1e-10, 2e-10)
                                         : rng.uniform_real(1e10, 2e10));
    if (i > 0)
      c.edge_weight.push_back(
          static_cast<graph::Weight>(rng.uniform_int(1, 100)));
  }
  return c;
}

// kernel_cold's regimes past the reference corpus: its tight and loose
// chain bounds (the digest above has the mid one), a randomly renumbered
// tree, and a chain whose prefix steps down at a block boundary, with a
// bound that puts the prime sweep's limit exactly at the window from the
// step to the end.  There the window from one vertex further right is
// heavier, so only a sweep that stops at its first light window keeps
// the primes.  The frozen reference folds without blocks and cannot
// check that chain.  The constant was captured from the kernels as they
// stood before the union-pass re-check and the three-wide prime sweep.
TEST(CsrDifferential, KernelColdRegimesGoldenDigest) {
  LargeInstance in = large_instance(0x9A77u, 50000, 60000);
  util::Pcg32 rng(0x4BC0u);
  in.t = graph::relabel_tree(rng, in.t);
  Digest d;
  for (double frac : {0.00002, 0.5}) {
    in.Kc = k_for(in.c.max_vertex_weight(), in.c.total_vertex_weight(), frac);
    d.add(solve_all(in).digest);
  }
  in.c = block_step_chain(0x57EAu);
  const int n = in.c.n();
  const int step = 2 * kPrefixBlock;
  util::Arena arena;
  const graph::CsrView g = graph::csr_from_chain(in.c, arena);
  ASSERT_LT(g.prefix[step + 1], g.prefix[step]) << "no step down";
  const graph::Weight limit = g.window(step, n - 1);
  in.Kc = k_with_limit(g.total_vertex_weight(), n, in.c.max_vertex_weight(),
                       limit);
  ASSERT_GT(in.Kc, 0);
  ASSERT_GT(g.window(step - 1, n - 1), limit);
  ASSERT_GT(g.window(step + 1, n - 1), limit);
  d.add(solve_all(in).digest);
  EXPECT_EQ(d.h, 0x0ec38b172de0e566ull);
}

// ---- Across-job parallelism ------------------------------------------------
//
// Solves run in parallel as separate jobs, one per service worker thread,
// each with its own arena and counter scope, all reading shared inputs.
// The answer must not depend on how many run at once.

std::vector<LargeRun> solve_concurrently(const LargeInstance& in, int width) {
  std::vector<LargeRun> runs(static_cast<std::size_t>(width));
  std::vector<std::thread> threads;
  for (LargeRun& run : runs)
    threads.emplace_back([&in, &run] { run = solve_all(in); });
  for (std::thread& th : threads) th.join();
  return runs;
}

TEST(CsrDifferential, ParallelWidthsBitIdentical) {
  const LargeInstance in = large_instance(0x9A77u, 50000, 60000);
  const LargeRun serial = solve_all(in);
  for (int width : {1, 2, 4}) {
    SCOPED_TRACE(width);
    for (const LargeRun& run : solve_concurrently(in, width)) {
      EXPECT_EQ(run.digest, serial.digest);
      EXPECT_TRUE(run.counters.algo_equal(serial.counters));
    }
  }
}

TEST(CsrDifferential, ParallelCountersStableAcrossRepeats) {
  // Same width, repeated runs: with a fresh arena, every counter (the
  // arena peak included) is a function of the instance alone.
  const LargeInstance in = large_instance(0x9A78u, 40000, 40000);
  const LargeRun first = solve_all(in);
  EXPECT_GT(first.counters.arena_bytes_peak, 0u);
  for (int rep = 0; rep < 2; ++rep) {
    for (const LargeRun& run : solve_concurrently(in, 4)) {
      EXPECT_EQ(run.counters, first.counters) << "rep " << rep;
      EXPECT_EQ(run.digest, first.digest) << "rep " << rep;
    }
  }
}

}  // namespace
}  // namespace tgp::core
