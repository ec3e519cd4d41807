#include "graph/fingerprint.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <numeric>

#include "graph/csr.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"

namespace tgp::graph {

namespace {

// splitmix64 finalizer — the standard 64-bit avalanche mixer.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t combine64(std::uint64_t seed, std::uint64_t v) {
  return mix64(seed ^ (v + 0x9E3779B97F4A7C15ull + (seed << 6) +
                       (seed >> 2)));
}

// Two independently seeded/salted 64-bit streams make up the 128 bits.
void absorb(Fingerprint& f, std::uint64_t v) {
  f.lo = combine64(f.lo, v);
  f.hi = combine64(f.hi, v ^ 0xA5A5A5A5A5A5A5A5ull);
}

Fingerprint seed_fp(std::uint64_t tag) {
  Fingerprint f{0x8B72E1E3F8D1B3C5ull, 0x243F6A8885A308D3ull};
  absorb(f, tag);
  return f;
}

std::uint64_t weight_bits(Weight w) { return std::bit_cast<std::uint64_t>(w); }

// Domain-separation tags so a chain and a tree with coincident weight
// streams can never collide by construction.
constexpr std::uint64_t kChainTag = 0xC4A11ull;
constexpr std::uint64_t kTreeTag = 0x73EEull;

bool hash_less(const Fingerprint& a, const Fingerprint& b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}

// The submitted tree's BFS layout (graph::TreeLayout), extended with the
// subtree sizes and the slots hashing sorts children in.  canonical_root
// later re-roots the layout in place, so that parent, edge, edge_weight
// and size describe the tree hung from its canonical root.  All arrays
// live in the caller's arena.
struct Layout : TreeLayout {
  int* size = nullptr;  // subtree size
  // kids[first[p] .. first[p+1]) lists p's children, starting in layout
  // order; hashing sorts each block into canonical order in place.
  int* kids = nullptr;

  // Whether p's children under the current rooting are its layout block.
  // False exactly for the re-rooted path: the root, and the vertices whose
  // parent moved to a higher position when the path was flipped.
  bool keeps_block(int p) const { return 0 <= parent[p] && parent[p] < p; }

  // Re-hangs p below its layout child `below`, over the edge joining
  // them; p's subtree becomes everything outside `below`'s.
  void hang_below(int p, int below) {
    parent[p] = below;
    edge[p] = edge[below];
    edge_weight[p] = edge_weight[below];
    size[p] = n - size[below];
  }
  void make_root(int p) {
    parent[p] = -1;
    edge[p] = -1;
    size[p] = n;
  }
};

Layout lay_out(const Tree& tree, util::Arena& arena) {
  Layout L{lay_out_tree(tree, arena)};
  const std::size_t un = static_cast<std::size_t>(L.n);
  L.size = arena.alloc_filled<int>(un, 1);
  L.kids = arena.alloc_array<int>(un);
  std::iota(L.kids, L.kids + L.n, 0);
  for (int p = L.n - 1; p > 0; --p) L.size[L.parent[p]] += L.size[p];
  return L;
}

// p's neighbours as layout positions, in p's adjacency order, minus
// `drop`: p's child list once the tree hangs from `drop`'s side (pass −1
// when p becomes the root).  Walks the adjacency and p's block in
// lockstep, so it must run before p's parent and edge are flipped.
int* neighbour_positions(const Tree& tree, const Layout& L, int p, int drop,
                         int* out) {
  int child = L.first[p];
  for (const std::pair<int, int>& half : tree.neighbors(L.vertex[p])) {
    const int pos = half.second == L.edge[p] ? L.parent[p] : child++;
    if (pos != drop) *out++ = pos;
  }
  return out;
}

// Whether child a sorts strictly before child b in canonical order:
// subtree hash, then the weight of the edge up to the parent.  Computed
// without branches.
bool key_less(const Layout& L, const Fingerprint* lifted, int a, int b) {
  const Fingerprint& x = lifted[a];
  const Fingerprint& y = lifted[b];
  const std::uint64_t wx = weight_bits(L.edge_weight[a]);
  const std::uint64_t wy = weight_bits(L.edge_weight[b]);
  return (x.hi < y.hi) |
         ((x.hi == y.hi) & ((x.lo < y.lo) | ((x.lo == y.lo) & (wx < wy))));
}

// Sorts the children [kb, ke) into canonical order.  Two children tying
// on the key are (up to hash collision) interchangeable isomorphic
// subtrees.  A block of two takes one compare and swaps only on a
// strictly smaller key, as std::sort's insertion step does.
void sort_children(const Layout& L, const Fingerprint* lifted, int* kb,
                   int* ke) {
  if (ke - kb == 2) {
    const int a = kb[0];
    const int b = kb[1];
    const bool swap = key_less(L, lifted, b, a);
    kb[0] = swap ? b : a;
    kb[1] = swap ? a : b;
  } else if (ke - kb > 2) {
    std::sort(kb, ke, [&](int a, int b) { return key_less(L, lifted, a, b); });
  }
}

// Sorts p's children [kb, ke) and returns p's subtree hash over them.
Fingerprint hash_subtree(const Layout& L, const Fingerprint* lifted,
                         const Fingerprint& seed, int p, int* kb, int* ke) {
  sort_children(L, lifted, kb, ke);
  Fingerprint h = seed;
  absorb(h, weight_bits(L.vertex_weight[p]));
  absorb(h, static_cast<std::uint64_t>(ke - kb));
  for (const int* c = kb; c != ke; ++c) {
    absorb(h, lifted[*c].hi);
    absorb(h, lifted[*c].lo);
  }
  return h;
}

// The lifted hashes of two block-keeping vertices p and q, neither the
// other's parent, so that neither reads the other's hash.  Their absorb
// calls interleave over the common prefix of their child blocks, which
// lets the two dependency chains of the hash overlap; each vertex
// absorbs exactly the sequence hash_subtree and the edge weight give it.
void lift_pair(const Layout& L, Fingerprint* lifted, const Fingerprint& seed,
               int p, int q) {
  int* pb = L.kids + L.first[p];
  int* const pe = L.kids + L.first[p + 1];
  int* qb = L.kids + L.first[q];
  int* const qe = L.kids + L.first[q + 1];
  sort_children(L, lifted, pb, pe);
  sort_children(L, lifted, qb, qe);
  Fingerprint a = seed;
  Fingerprint b = seed;
  absorb(a, weight_bits(L.vertex_weight[p]));
  absorb(b, weight_bits(L.vertex_weight[q]));
  absorb(a, static_cast<std::uint64_t>(pe - pb));
  absorb(b, static_cast<std::uint64_t>(qe - qb));
  for (; pb != pe && qb != qe; ++pb, ++qb) {
    absorb(a, lifted[*pb].hi);
    absorb(b, lifted[*qb].hi);
    absorb(a, lifted[*pb].lo);
    absorb(b, lifted[*qb].lo);
  }
  for (; pb != pe; ++pb) {
    absorb(a, lifted[*pb].hi);
    absorb(a, lifted[*pb].lo);
  }
  for (; qb != qe; ++qb) {
    absorb(b, lifted[*qb].hi);
    absorb(b, lifted[*qb].lo);
  }
  absorb(a, weight_bits(L.edge_weight[p]));
  absorb(b, weight_bits(L.edge_weight[q]));
  lifted[p] = a;
  lifted[q] = b;
}

// A vertex whose children under the canonical rooting are not its layout
// block: one on the path from the root to position 0.
struct PathVertex {
  int pos = 0;
  int* kids_begin = nullptr;
  int* kids_end = nullptr;
};

// The layout re-rooted at the canonical root — of the one or two
// centroids, the one with the smaller rooted subtree hash, the lower
// vertex id on a tie — with every child list in canonical order, and the
// fingerprint built from the root's hash.  path[top], path[top-1], ...,
// path[0] run from the root down to position 0; every other vertex keeps
// its (sorted) layout block.  tree_fingerprint and canonical_labelling
// both take their key from here, so the cache key and the labelling
// cannot drift apart.
struct CanonicalRoot {
  Layout layout;
  int root = 0;
  const PathVertex* path = nullptr;
  int top = 0;
  Fingerprint fingerprint;
};

CanonicalRoot canonical_root(const Tree& tree, util::Arena& arena) {
  Layout L = lay_out(tree, arena);
  const int n = L.n;
  const std::size_t un = static_cast<std::size_t>(n);

  // Centroids: walk down from position 0 into the child holding more
  // than half the vertices.  Where no child does, the walk stands on a
  // centroid c, k edges below position 0.  A second centroid exists only
  // as a child of c holding exactly half.
  int c = 0;
  int k = 0;
  int q = -1;
  for (;;) {
    int next = -1;
    for (int ch = L.first[c]; ch < L.first[c + 1]; ++ch) {
      if (2 * L.size[ch] > n) next = ch;
      if (2 * L.size[ch] == n) q = ch;
    }
    if (next < 0) break;
    c = next;
    ++k;
  }

  // path[0..k] is the walk, position 0 first.  Each path vertex's child
  // list is its neighbours minus the one above it once the tree hangs
  // from c.  path[k + 1] and c_below hold q's and c's lists for the case
  // that q becomes the root instead.
  PathVertex* path =
      arena.alloc_array<PathVertex>(static_cast<std::size_t>(k) + 2);
  std::size_t slots = 0;
  for (int j = k, p = c; j >= 0; --j, p = L.parent[p]) {
    path[j].pos = p;
    slots += static_cast<std::size_t>(tree.degree(L.vertex[p]));
  }
  if (q >= 0)
    slots += static_cast<std::size_t>(tree.degree(L.vertex[c]) +
                                      tree.degree(L.vertex[q]));
  int* cursor = arena.alloc_array<int>(slots);
  auto list = [&](int p, int drop) {
    PathVertex pv{p, cursor, neighbour_positions(tree, L, p, drop, cursor)};
    cursor = pv.kids_end;
    return pv;
  };
  for (int j = 0; j <= k; ++j)
    path[j] = list(path[j].pos, j < k ? path[j + 1].pos : -1);
  PathVertex c_below;
  if (q >= 0) {
    c_below = list(c, q);
    path[k + 1] = list(q, -1);
  }

  // Flip the path.  Ascending order reads each successor unflipped.
  for (int j = 0; j < k; ++j) L.hang_below(path[j].pos, path[j + 1].pos);
  L.make_root(c);

  // Children before parents: the vertices that keep their blocks in
  // reverse position order (none has a path vertex below it), then the
  // path from position 0 up to c.  Position 0 never keeps its block.  A
  // block-keeping vertex's children keep theirs and sit at higher
  // positions, so the blocks are hashed two at a time: a vertex together
  // with the next block-keeping one below it, unless that one is its
  // parent.
  Fingerprint* lifted = arena.alloc_array<Fingerprint>(un);
  const Fingerprint seed = seed_fp(kTreeTag);
  auto hash_up = [&](int p, int* kb, int* ke) {
    Fingerprint h = hash_subtree(L, lifted, seed, p, kb, ke);
    absorb(h, weight_bits(L.edge_weight[p]));
    lifted[p] = h;
  };
  auto block_at_or_below = [&](int p) {
    while (p > 0 && !L.keeps_block(p)) --p;
    return p;
  };
  for (int p = block_at_or_below(n - 1); p > 0;) {
    const int next = block_at_or_below(p - 1);
    if (next > 0 && L.parent[p] != next) {
      lift_pair(L, lifted, seed, p, next);
      p = block_at_or_below(next - 1);
    } else {
      hash_up(p, L.kids + L.first[p], L.kids + L.first[p + 1]);
      p = next;
    }
  }
  for (int j = 0; j < k; ++j)
    hash_up(path[j].pos, path[j].kids_begin, path[j].kids_end);
  Fingerprint root_hash =
      hash_subtree(L, lifted, seed, c, path[k].kids_begin, path[k].kids_end);

  CanonicalRoot out;
  out.root = c;
  out.top = k;
  if (q >= 0) {
    // Try the rooting at q: c hangs below it, everything else stays.
    L.hang_below(c, q);
    hash_up(c, c_below.kids_begin, c_below.kids_end);
    const Fingerprint q_hash = hash_subtree(L, lifted, seed, q,
                                            path[k + 1].kids_begin,
                                            path[k + 1].kids_end);
    const bool q_wins = L.vertex[q] < L.vertex[c]
                            ? !hash_less(root_hash, q_hash)
                            : hash_less(q_hash, root_hash);
    if (q_wins) {
      root_hash = q_hash;
      out.root = q;
      out.top = k + 1;
      path[k] = c_below;
    }
    L.make_root(out.root);
  }
  out.layout = L;
  out.path = path;
  out.fingerprint = seed;
  absorb(out.fingerprint, static_cast<std::uint64_t>(n));
  absorb(out.fingerprint, root_hash.hi);
  absorb(out.fingerprint, root_hash.lo);
  return out;
}

// Whether the chain's reversal is the canonical orientation: its
// (vertex weights, edge weights) sequence is lexicographically smaller
// under bit-pattern comparison.  Ties (palindromes) keep the submitted
// orientation.
bool reversal_is_smaller(const Chain& chain) {
  int cmp = 0;
  const std::size_t n = chain.vertex_weight.size();
  for (std::size_t i = 0; cmp == 0 && i < n; ++i) {
    std::uint64_t a = weight_bits(chain.vertex_weight[i]);
    std::uint64_t b = weight_bits(chain.vertex_weight[n - 1 - i]);
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  }
  const std::size_t m = chain.edge_weight.size();
  for (std::size_t i = 0; cmp == 0 && i < m; ++i) {
    std::uint64_t a = weight_bits(chain.edge_weight[i]);
    std::uint64_t b = weight_bits(chain.edge_weight[m - 1 - i]);
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  }
  return cmp > 0;
}

}  // namespace

std::string Fingerprint::hex() const {
  char buf[36];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

void Fingerprint::store_le(unsigned char out[kWireBytes]) const {
  for (int i = 0; i < 8; ++i)
    out[i] = static_cast<unsigned char>(lo >> (8 * i));
  for (int i = 0; i < 8; ++i)
    out[8 + i] = static_cast<unsigned char>(hi >> (8 * i));
}

Fingerprint Fingerprint::load_le(const unsigned char in[kWireBytes]) {
  Fingerprint f;
  for (int i = 0; i < 8; ++i)
    f.lo |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  for (int i = 0; i < 8; ++i)
    f.hi |= static_cast<std::uint64_t>(in[8 + i]) << (8 * i);
  return f;
}

ChainOrientation chain_orientation(const Chain& chain) {
  return ChainOrientation{reversal_is_smaller(chain), chain.edge_count()};
}

CanonicalChain canonical_chain(const Chain& chain) {
  chain.validate();
  CanonicalChain out;
  static_cast<ChainOrientation&>(out) = chain_orientation(chain);
  if (!out.reversed) {
    out.chain = chain;
  } else {
    out.chain.vertex_weight.assign(chain.vertex_weight.rbegin(),
                                   chain.vertex_weight.rend());
    out.chain.edge_weight.assign(chain.edge_weight.rbegin(),
                                 chain.edge_weight.rend());
  }
  return out;
}

TreeLabelling canonical_labelling(const Tree& tree, util::Arena* arena) {
  const std::size_t n = static_cast<std::size_t>(tree.n());
  util::ScratchFrame frame(arena);
  const CanonicalRoot best = canonical_root(tree, frame.arena());
  const Layout& L = best.layout;
  TreeLabelling out;
  out.fingerprint = best.fingerprint;

  // Preorder relabeling with canonical child order, top down: a child's
  // canonical index is its parent's plus one plus the sizes of its
  // earlier siblings.  Canonical vertex 0 is the root; every other
  // vertex c hangs off its parent by canonical edge c-1 (the numbering
  // Tree::from_parents emits).
  out.orig_vertex.resize(n);
  out.parent.resize(n);
  out.orig_edge.resize(n - 1);  // a Tree has at least one vertex
  int* index = frame->alloc_array<int>(n);
  index[best.root] = 0;
  out.orig_vertex[0] = L.vertex[best.root];
  out.parent[0] = -1;
  auto place = [&](int p, const int* kb, const int* ke) {
    int next = index[p] + 1;
    for (const int* it = kb; it != ke; ++it) {
      const int child = *it;
      index[child] = next;
      out.orig_vertex[static_cast<std::size_t>(next)] = L.vertex[child];
      out.parent[static_cast<std::size_t>(next)] = index[p];
      out.orig_edge[static_cast<std::size_t>(next - 1)] = L.edge[child];
      next += L.size[child];
    }
  };
  // Path vertices top down, then blocks in position order: either way a
  // parent is placed before its children.
  for (int j = best.top; j >= 0; --j)
    place(best.path[j].pos, best.path[j].kids_begin, best.path[j].kids_end);
  for (int p = 1; p < L.n; ++p)
    if (L.keeps_block(p))
      place(p, L.kids + L.first[p], L.kids + L.first[p + 1]);
  return out;
}

Tree build_canonical_tree(const Tree& tree, const TreeKey& key,
                          const TreeOrder& order) {
  const std::size_t n = order.orig_vertex.size();
  TGP_REQUIRE(n == static_cast<std::size_t>(tree.n()) &&
                  key.orig_edge.size() + 1 == n,
              "labelling belongs to a tree of a different size");
  std::vector<Weight> vw(n);
  std::vector<Weight> pew(n, Weight{1});
  for (std::size_t c = 0; c < n; ++c)
    vw[c] = tree.vertex_weight(order.orig_vertex[c]);
  for (std::size_t c = 1; c < n; ++c)
    pew[c] = tree.edge(key.orig_edge[c - 1]).weight;
  return Tree::from_parents(std::move(vw), order.parent, pew);
}

CanonicalTree canonical_tree(const Tree& tree, util::Arena* arena) {
  TreeLabelling labelling = canonical_labelling(tree, arena);
  Tree built = build_canonical_tree(tree, labelling, labelling);
  return CanonicalTree{std::move(labelling), std::move(built)};
}

Fingerprint chain_fingerprint(const Chain& chain) {
  // Absorb the weight streams in the canonical direction directly,
  // without materializing the reversed copy.
  const bool reversed = reversal_is_smaller(chain);
  const int n = chain.n();
  const int m = chain.edge_count();
  Fingerprint f = seed_fp(kChainTag);
  absorb(f, static_cast<std::uint64_t>(n));
  if (!reversed) {
    for (Weight w : chain.vertex_weight) absorb(f, weight_bits(w));
    for (Weight w : chain.edge_weight) absorb(f, weight_bits(w));
  } else {
    for (int i = n - 1; i >= 0; --i)
      absorb(f, weight_bits(chain.vertex_weight[static_cast<std::size_t>(i)]));
    for (int i = m - 1; i >= 0; --i)
      absorb(f, weight_bits(chain.edge_weight[static_cast<std::size_t>(i)]));
  }
  return f;
}

Fingerprint tree_fingerprint(const Tree& tree, util::Arena* arena) {
  util::ScratchFrame frame(arena);
  return canonical_root(tree, frame.arena()).fingerprint;
}

}  // namespace tgp::graph
