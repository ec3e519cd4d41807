// Canonical forms and fingerprints (graph/fingerprint.hpp): reversal- and
// relabeling-stability, back-mapping correctness, sensitivity to weights.
#include "graph/fingerprint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <optional>
#include <thread>

#include "graph/cutset.hpp"
#include "graph/generators.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace tgp::graph {
namespace {

Chain make_chain(std::vector<Weight> v, std::vector<Weight> e) {
  Chain c;
  c.vertex_weight = std::move(v);
  c.edge_weight = std::move(e);
  c.validate();
  return c;
}

// A fixed seeded corpus over the shapes canonicalisation treats
// differently: one and two vertices, paths (even ones have two
// centroids, symmetric ones tie on them), stars, caterpillars, binary
// and random trees up to a few thousand vertices.  Every tree appears as
// built and relabelled.
std::vector<Tree> tree_corpus() {
  util::Pcg32 rng(16016, 5);
  const WeightDist w = WeightDist::uniform(1, 20);
  std::vector<Tree> out;
  out.push_back(Tree::from_edges({5.0}, {}));
  out.push_back(Tree::from_edges({5.0, 6.0}, {{0, 1, 3.0}}));
  out.push_back(path_tree(make_chain({1, 1, 1, 1}, {2, 3, 2})));
  out.push_back(path_tree(make_chain({1, 2, 3, 4, 5, 6}, {1, 1, 1, 1, 1})));
  for (int n : {3, 8, 64, 257, 1000})
    out.push_back(path_tree(random_chain(rng, n, w, w)));
  for (int n : {3, 9, 100}) out.push_back(star_tree(rng, n, w, w));
  for (int spine : {2, 7, 40})
    out.push_back(caterpillar_tree(rng, spine, 3, w, w));
  for (int n : {15, 31, 500}) out.push_back(random_binary_tree(rng, n, w, w));
  for (int n : {5, 40, 333, 3000}) out.push_back(random_tree(rng, n, w, w));
  // Small integer weights make isomorphic subtrees (hash ties) common.
  out.push_back(random_tree(rng, 2000, WeightDist::uniform(1, 2),
                            WeightDist::constant(1)));
  const std::size_t built = out.size();
  for (std::size_t i = 0; i < built; ++i)
    out.push_back(relabel_tree(rng, out[i]));
  return out;
}

// Two heap-shaped binary trees of m vertices each, joined root to root:
// vertices 0 and m are its two centroids.
Tree twin_binary_tree(util::Pcg32& rng, int m, const WeightDist& w) {
  std::vector<Weight> vw;
  std::vector<TreeEdge> edges;
  for (int v = 0; v < 2 * m; ++v) vw.push_back(w.sample(rng));
  for (int half = 0; half < 2; ++half)
    for (int i = 1; i < m; ++i)
      edges.push_back({half * m + (i - 1) / 2, half * m + i, w.sample(rng)});
  edges.push_back({0, m, w.sample(rng)});
  return Tree::from_edges(std::move(vw), std::move(edges));
}

// A second seeded corpus aimed at re-rooting a tree at its centroid.
// Paths and caterpillars are numbered from one end, so the centroid sits
// far from vertex 0.  Relabelled stars move the centre away from vertex
// 0.  Even paths and twin binary trees have two centroids, and either
// may win.  Two of every three trees draw all weights from {1} or {1, 2},
// so isomorphic siblings tie.  Every tree appears as built and
// relabelled.
std::vector<Tree> flip_corpus() {
  util::Pcg32 rng(17017, 9);
  const WeightDist real = WeightDist::uniform(1, 20);
  const WeightDist one = WeightDist::constant(1);
  const WeightDist one_or_two = WeightDist::bimodal(0.5, 1, 1, 2, 2);
  std::vector<Tree> out;
  for (int i = 0; i < 500; ++i) {
    const int n = i < 10 ? 1 + i / 5
                         : 1 + static_cast<int>(rng.uniform_int(
                                   0, i % 10 == 0 ? 3000 : 200));
    const WeightDist& w = i % 3 == 0 ? real : i % 3 == 1 ? one_or_two : one;
    switch (i % 5) {
      case 0: out.push_back(path_tree(random_chain(rng, n, w, w))); break;
      case 1: out.push_back(caterpillar_tree(rng, 1 + n / 3, 2, w, w)); break;
      case 2: out.push_back(star_tree(rng, n, w, w)); break;
      case 3: out.push_back(twin_binary_tree(rng, (n + 1) / 2, w)); break;
      default: out.push_back(random_tree(rng, n, w, w)); break;
    }
  }
  const std::size_t built = out.size();
  for (std::size_t i = 0; i < built; ++i)
    out.push_back(relabel_tree(rng, out[i]));
  return out;
}

// The one or two centroids of `t` in ascending vertex order, found by
// brute force: the vertices whose largest component after removal is
// smallest.
std::vector<int> centroids_of(const Tree& t) {
  const int n = t.n();
  std::vector<int> parent, parent_edge;
  t.root_at(0, parent, parent_edge);
  const std::vector<int> order = t.bfs_order(0);
  std::vector<int> size(static_cast<std::size_t>(n), 1);
  std::vector<int> worst(static_cast<std::size_t>(n), 0);
  for (int i = n - 1; i > 0; --i) {
    const std::size_t v = static_cast<std::size_t>(order[i]);
    const std::size_t p = static_cast<std::size_t>(parent[v]);
    size[p] += size[v];
    worst[p] = std::max(worst[p], size[v]);
  }
  int best = n;
  for (std::size_t v = 0; v < worst.size(); ++v) {
    worst[v] = std::max(worst[v], n - size[v]);
    best = std::min(best, worst[v]);
  }
  std::vector<int> out;
  for (std::size_t v = 0; v < worst.size(); ++v)
    if (worst[v] == best) out.push_back(static_cast<int>(v));
  return out;
}

// FNV-1a over everything a durable cache record or a shard route depends
// on: the maps back, the canonical tree's edges and weight bits, and the
// fingerprint.  Uses only canonical_tree and tree_fingerprint, so the
// same code computes the digest at any revision.
std::uint64_t canonical_form_digest(const std::vector<Tree>& corpus) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto word = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  auto bits = [](Weight x) { return std::bit_cast<std::uint64_t>(x); };
  for (const Tree& t : corpus) {
    CanonicalTree ct = canonical_tree(t);
    word(static_cast<std::uint64_t>(ct.tree.n()));
    for (int v : ct.orig_vertex) word(static_cast<std::uint64_t>(v));
    for (int e : ct.orig_edge) word(static_cast<std::uint64_t>(e));
    for (Weight x : ct.tree.vertex_weights()) word(bits(x));
    for (const TreeEdge& e : ct.tree.edges()) {
      word(static_cast<std::uint64_t>(e.u));
      word(static_cast<std::uint64_t>(e.v));
      word(bits(e.weight));
    }
    const Fingerprint f = tree_fingerprint(t);
    word(f.hi);
    word(f.lo);
  }
  return h;
}

TEST(CanonicalChain, ReversalConvergesToOneOrientation) {
  Chain a = make_chain({1, 2, 3, 4}, {10, 20, 30});
  Chain b = reversed_chain(a);
  CanonicalChain ca = canonical_chain(a);
  CanonicalChain cb = canonical_chain(b);
  EXPECT_EQ(ca.chain.vertex_weight, cb.chain.vertex_weight);
  EXPECT_EQ(ca.chain.edge_weight, cb.chain.edge_weight);
  EXPECT_NE(ca.reversed, cb.reversed);
}

TEST(CanonicalChain, MapEdgeBackIdentityWhenNotReversed) {
  Chain a = make_chain({1, 2, 3}, {5, 6});
  CanonicalChain ca = canonical_chain(a);
  ASSERT_FALSE(ca.reversed);  // already canonical (ascending)
  EXPECT_EQ(ca.map_edge_back(0), 0);
  EXPECT_EQ(ca.map_edge_back(1), 1);
}

TEST(CanonicalChain, MapEdgeBackMirrorsWhenReversed) {
  Chain a = make_chain({3, 2, 1}, {6, 5});
  CanonicalChain ca = canonical_chain(a);
  ASSERT_TRUE(ca.reversed);
  // Canonical edge i refers to submitted edge (m-1-i); the edge weight
  // must agree through the map.
  for (int e = 0; e < ca.chain.edge_count(); ++e)
    EXPECT_EQ(ca.chain.edge_weight[static_cast<std::size_t>(e)],
              a.edge_weight[static_cast<std::size_t>(ca.map_edge_back(e))]);
}

TEST(CanonicalChain, PalindromeIsItsOwnCanonicalForm) {
  Chain p = make_chain({1, 2, 1}, {7, 7});
  CanonicalChain cp = canonical_chain(p);
  EXPECT_FALSE(cp.reversed);
  EXPECT_EQ(cp.chain.vertex_weight, p.vertex_weight);
}

TEST(Fingerprint, ChainReversalCollides) {
  util::Pcg32 rng(99, 3);
  for (int trial = 0; trial < 20; ++trial) {
    Chain c = random_chain(rng, 2 + trial * 7,
                           WeightDist::uniform(1, 50),
                           WeightDist::uniform(1, 50));
    EXPECT_EQ(chain_fingerprint(c), chain_fingerprint(reversed_chain(c)));
  }
}

TEST(Fingerprint, ChainWeightPerturbationSeparates) {
  Chain a = make_chain({1, 2, 3}, {5, 6});
  Chain b = make_chain({1, 2, 3}, {5, 6.000001});
  Chain c = make_chain({1, 2.5, 3}, {5, 6});
  EXPECT_NE(chain_fingerprint(a), chain_fingerprint(b));
  EXPECT_NE(chain_fingerprint(a), chain_fingerprint(c));
}

TEST(Fingerprint, ChainAndPathTreeDoNotCollide) {
  Chain c = make_chain({1, 2, 3}, {5, 6});
  EXPECT_NE(chain_fingerprint(c), tree_fingerprint(path_tree(c)));
}

TEST(Fingerprint, TreeRelabelingCollides) {
  util::Pcg32 rng(1234, 5);
  for (int trial = 0; trial < 30; ++trial) {
    int n = 2 + static_cast<int>(rng.uniform_int(0, 60));
    Tree t = random_tree(rng, n, WeightDist::uniform(1, 20),
                         WeightDist::uniform(1, 20));
    Fingerprint f = tree_fingerprint(t);
    for (int rep = 0; rep < 3; ++rep)
      EXPECT_EQ(f, tree_fingerprint(relabel_tree(rng, t)));
  }
}

TEST(Fingerprint, StarChildPermutationCollides) {
  util::Pcg32 rng(7, 7);
  Tree s = star_tree(rng, 9, WeightDist::uniform(1, 10),
                     WeightDist::uniform(1, 10));
  Fingerprint f = tree_fingerprint(s);
  for (int rep = 0; rep < 5; ++rep)
    EXPECT_EQ(f, tree_fingerprint(relabel_tree(rng, s)));
}

TEST(Fingerprint, TreeEdgeWeightChangeSeparates) {
  std::vector<Weight> vw{1, 2, 3, 4};
  std::vector<TreeEdge> e1{{0, 1, 5}, {1, 2, 6}, {1, 3, 7}};
  std::vector<TreeEdge> e2{{0, 1, 5}, {1, 2, 6}, {1, 3, 7.5}};
  EXPECT_NE(tree_fingerprint(Tree::from_edges(vw, e1)),
            tree_fingerprint(Tree::from_edges(vw, e2)));
}

TEST(Fingerprint, DistinctRandomTreesSeparate) {
  util::Pcg32 rng(500, 11);
  std::vector<Fingerprint> seen;
  for (int i = 0; i < 50; ++i) {
    Tree t = random_tree(rng, 24, WeightDist::uniform(1, 100),
                         WeightDist::uniform(1, 100));
    Fingerprint f = tree_fingerprint(t);
    for (const Fingerprint& g : seen) EXPECT_NE(f, g);
    seen.push_back(f);
  }
}

TEST(CanonicalTree, MapsArePermutations) {
  util::Pcg32 rng(321, 13);
  Tree t = random_tree(rng, 40, WeightDist::uniform(1, 9),
                       WeightDist::uniform(1, 9));
  CanonicalTree ct = canonical_tree(t);
  ASSERT_EQ(ct.tree.n(), t.n());
  std::vector<char> vseen(40, 0), eseen(39, 0);
  for (int v : ct.orig_vertex) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 40);
    EXPECT_FALSE(vseen[static_cast<std::size_t>(v)]);
    vseen[static_cast<std::size_t>(v)] = 1;
  }
  for (int e : ct.orig_edge) {
    ASSERT_GE(e, 0);
    ASSERT_LT(e, 39);
    EXPECT_FALSE(eseen[static_cast<std::size_t>(e)]);
    eseen[static_cast<std::size_t>(e)] = 1;
  }
}

TEST(CanonicalTree, PreservesWeightsThroughMaps) {
  util::Pcg32 rng(654, 17);
  Tree t = random_binary_tree(rng, 31, WeightDist::uniform(1, 9),
                              WeightDist::uniform(1, 9));
  CanonicalTree ct = canonical_tree(t);
  for (int c = 0; c < ct.tree.n(); ++c)
    EXPECT_EQ(ct.tree.vertex_weight(c),
              t.vertex_weight(ct.orig_vertex[static_cast<std::size_t>(c)]));
  for (int e = 0; e < ct.tree.edge_count(); ++e)
    EXPECT_EQ(ct.tree.edge(e).weight,
              t.edge(ct.map_edge_back(e)).weight);
}

TEST(CanonicalTree, CutMappingPreservesWeightAndFeasibility) {
  util::Pcg32 rng(777, 19);
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = random_tree(rng, 30, WeightDist::uniform(1, 9),
                         WeightDist::uniform(1, 9));
    CanonicalTree ct = canonical_tree(t);
    // A random cut in canonical numbering maps to one of equal weight
    // and equal component structure in the submitted numbering.
    Cut canon_cut;
    for (int e = 0; e < ct.tree.edge_count(); ++e)
      if (rng.coin(0.3)) canon_cut.edges.push_back(e);
    Cut orig_cut;
    for (int e : canon_cut.edges) orig_cut.edges.push_back(ct.map_edge_back(e));
    // Same multiset of doubles, possibly summed in a different order.
    EXPECT_NEAR(tree_cut_weight(ct.tree, canon_cut),
                tree_cut_weight(t, orig_cut), 1e-9);
    std::vector<Weight> a = tree_component_weights(ct.tree, canon_cut);
    std::vector<Weight> b = tree_component_weights(t, orig_cut);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST(CanonicalTree, RelabeledPresentationsShareCanonicalStructure) {
  util::Pcg32 rng(888, 23);
  Tree t = random_tree(rng, 25, WeightDist::uniform(1, 6),
                       WeightDist::uniform(1, 6));
  CanonicalTree c1 = canonical_tree(t);
  CanonicalTree c2 = canonical_tree(relabel_tree(rng, t));
  ASSERT_EQ(c1.tree.n(), c2.tree.n());
  for (int v = 0; v < c1.tree.n(); ++v)
    EXPECT_EQ(c1.tree.vertex_weight(v), c2.tree.vertex_weight(v));
  for (int e = 0; e < c1.tree.edge_count(); ++e) {
    EXPECT_EQ(c1.tree.edge(e).u, c2.tree.edge(e).u);
    EXPECT_EQ(c1.tree.edge(e).v, c2.tree.edge(e).v);
    EXPECT_EQ(c1.tree.edge(e).weight, c2.tree.edge(e).weight);
  }
}

TEST(CanonicalTree, TwoCentroidPathsHandled) {
  // Even path: two adjacent centroids.
  Chain c = make_chain({1, 1, 1, 1}, {2, 3, 2});
  Tree t = path_tree(c);
  CanonicalTree ct = canonical_tree(t);
  EXPECT_EQ(ct.tree.n(), 4);
  EXPECT_EQ(tree_fingerprint(t), tree_fingerprint(ct.tree));
}

TEST(CanonicalTree, SingleVertexAndSingleEdge) {
  Tree one = Tree::from_edges({5.0}, {});
  EXPECT_EQ(canonical_tree(one).tree.n(), 1);
  Tree two = Tree::from_edges({5.0, 6.0}, {{0, 1, 3.0}});
  CanonicalTree ct = canonical_tree(two);
  EXPECT_EQ(ct.tree.n(), 2);
  EXPECT_EQ(ct.map_edge_back(0), 0);
  EXPECT_EQ(tree_fingerprint(two), tree_fingerprint(ct.tree));
}

TEST(CanonicalTree, LabellingMatchesBuiltTreeAndCacheKey) {
  // The labelling carries the same maps as the built canonical tree, and
  // its fingerprint is the cache key tree_fingerprint computes on both
  // the submitted tree and the canonical one.
  util::Arena arena;
  for (const std::vector<Tree>& corpus : {tree_corpus(), flip_corpus()}) {
    for (const Tree& t : corpus) {
      const TreeLabelling l = canonical_labelling(t, &arena);
      const CanonicalTree ct = canonical_tree(t);
      EXPECT_EQ(l.orig_vertex, ct.orig_vertex) << "n=" << t.n();
      EXPECT_EQ(l.orig_edge, ct.orig_edge) << "n=" << t.n();
      const Fingerprint f = tree_fingerprint(t);
      EXPECT_EQ(l.fingerprint, f) << "n=" << t.n();
      EXPECT_EQ(ct.fingerprint, f) << "n=" << t.n();
      EXPECT_EQ(tree_fingerprint(ct.tree), f) << "n=" << t.n();
    }
  }
}

// The flip corpus reaches every way the root can be chosen: a centroid
// many edges from vertex 0, and two centroids where either one wins.
TEST(CanonicalTree, FlipCorpusCoversTheRootChoices) {
  int far_roots = 0;
  int higher_wins = 0;
  int lower_wins = 0;
  for (const Tree& t : flip_corpus()) {
    const std::vector<int> cs = centroids_of(t);
    const int root = canonical_labelling(t).orig_vertex[0];
    ASSERT_NE(std::find(cs.begin(), cs.end(), root), cs.end())
        << "n=" << t.n() << ": the root is not a centroid";
    if (cs.size() == 2) ++(root == cs[1] ? higher_wins : lower_wins);
    std::vector<int> parent, parent_edge;
    t.root_at(0, parent, parent_edge);
    int depth = 0;
    for (int v = root; v != 0; v = parent[static_cast<std::size_t>(v)])
      ++depth;
    if (t.n() >= 100 && 4 * depth >= t.n()) ++far_roots;
  }
  EXPECT_GE(far_roots, 20);
  EXPECT_GE(higher_wins, 50);
  EXPECT_GE(lower_wins, 50);
}

// Durable cache records and shard routes are keyed by these bytes: a
// change to the canonical form or the fingerprint strands every store
// written before it.  The constant was captured before canonical_tree was
// split into labelling and build steps, and the split reproduces it.
// Only a deliberate format change may update it, together with
// kCacheRecordEpoch (svc/persist.hpp).
TEST(CanonicalTree, GoldenDigestOfSeededCorpus) {
  const std::vector<Tree> corpus = tree_corpus();
  ASSERT_EQ(corpus.size(), 46u);
  EXPECT_EQ(canonical_form_digest(corpus), 0x0b4f45b61e30955dull);
}

// The same bytes over the flip corpus.  The constant was captured from
// the implementation that rooted the tree with a second BFS per centroid,
// before the path flip replaced it.
TEST(CanonicalTree, GoldenDigestOfFlipCorpus) {
  const std::vector<Tree> corpus = flip_corpus();
  ASSERT_EQ(corpus.size(), 1000u);
  EXPECT_EQ(canonical_form_digest(corpus), 0x5684cba50090951dull);
}

// Tree::canonical_key keeps the labelling's key part: on both corpora
// (relabelled trees, decimal weights, two centroids, isomorphic ties) it
// equals canonical_labelling's fingerprint and edge map, and a second
// call returns the kept object instead of computing again.
TEST(TreeKey, KeptKeyEqualsTheLabelling) {
  util::Arena arena;
  for (const std::vector<Tree>& corpus : {tree_corpus(), flip_corpus()}) {
    for (const Tree& t : corpus) {
      const TreeLabelling l = canonical_labelling(t, &arena);
      const TreeKey& k = t.canonical_key(&arena);
      EXPECT_EQ(k.fingerprint, l.fingerprint) << "n=" << t.n();
      EXPECT_EQ(k.orig_edge, l.orig_edge) << "n=" << t.n();
      EXPECT_EQ(&t.canonical_key(), &k) << "n=" << t.n();
    }
  }
}

// The call that computes the key hands back the rest of the labelling it
// came from, and the two build the canonical tree; a call that reads the
// kept key resets it.
TEST(TreeKey, ComputingCallHandsBackTheOrder) {
  for (const Tree& t : tree_corpus()) {
    std::optional<TreeOrder> got;
    const TreeKey& k = t.canonical_key(nullptr, &got);
    ASSERT_TRUE(got.has_value()) << "n=" << t.n();
    const CanonicalTree want = canonical_tree(t);
    EXPECT_EQ(got->orig_vertex, want.orig_vertex) << "n=" << t.n();
    EXPECT_EQ(got->parent, want.parent) << "n=" << t.n();
    const Tree built = build_canonical_tree(t, k, *got);
    EXPECT_EQ(built.vertex_weights(), want.tree.vertex_weights())
        << "n=" << t.n();
    for (int e = 0; e < built.edge_count(); ++e) {
      EXPECT_EQ(built.edge(e).u, want.tree.edge(e).u) << "n=" << t.n();
      EXPECT_EQ(built.edge(e).v, want.tree.edge(e).v) << "n=" << t.n();
      EXPECT_EQ(built.edge(e).weight, want.tree.edge(e).weight)
          << "n=" << t.n();
    }
    EXPECT_EQ(&t.canonical_key(nullptr, &got), &k) << "n=" << t.n();
    EXPECT_FALSE(got.has_value()) << "n=" << t.n();
  }
}

// Eight threads asking a fresh tree for its key at once all get the one
// object that won the publication.
TEST(TreeKey, RacingFirstCallsShareOneKey) {
  constexpr int kThreads = 8;
  util::Pcg32 rng(27027, 3);
  const WeightDist w = WeightDist::uniform(1, 20);
  for (int round = 0; round < 10; ++round) {
    const Tree t = relabel_tree(rng, random_tree(rng, 2000, w, w));
    std::latch start(kThreads);
    std::vector<const TreeKey*> got(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        got[static_cast<std::size_t>(i)] = &t.canonical_key();
      });
    for (std::thread& th : threads) th.join();
    for (const TreeKey* k : got) EXPECT_EQ(k, got[0]) << "round " << round;
    EXPECT_EQ(got[0]->fingerprint, tree_fingerprint(t)) << "round " << round;
  }
}

// A copy is a new object and computes its own (equal) key, by copy
// construction or copy assignment; a move takes the source's key along.
TEST(TreeKey, CopyStartsWithoutAKeyAndMoveCarriesIt) {
  util::Pcg32 rng(27028, 5);
  const WeightDist w = WeightDist::uniform(1, 20);
  Tree t = relabel_tree(rng, random_tree(rng, 300, w, w));
  const TreeKey& k = t.canonical_key();
  std::optional<TreeOrder> computed;
  auto expect_own_equal_key = [&](const Tree& copy) {
    const TreeKey& ck = copy.canonical_key(nullptr, &computed);
    EXPECT_TRUE(computed.has_value());
    EXPECT_NE(&ck, &k);
    EXPECT_EQ(ck.fingerprint, k.fingerprint);
    EXPECT_EQ(ck.orig_edge, k.orig_edge);
  };
  const Tree copied(t);
  expect_own_equal_key(copied);
  Tree assigned = random_tree(rng, 10, w, w);
  (void)assigned.canonical_key();
  assigned = t;
  expect_own_equal_key(assigned);

  Tree moved(std::move(t));
  EXPECT_EQ(&moved.canonical_key(nullptr, &computed), &k);
  EXPECT_FALSE(computed.has_value());
  Tree move_assigned = random_tree(rng, 10, w, w);
  (void)move_assigned.canonical_key();
  move_assigned = std::move(moved);
  EXPECT_EQ(&move_assigned.canonical_key(nullptr, &computed), &k);
  EXPECT_FALSE(computed.has_value());
}

TEST(Fingerprint, HexRendersBothWords) {
  Fingerprint f{0x0123456789abcdefull, 0xfedcba9876543210ull};
  EXPECT_EQ(f.hex(), "0123456789abcdeffedcba9876543210");
}

}  // namespace
}  // namespace tgp::graph
