#include "graph/fingerprint.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

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
constexpr std::uint64_t kChainContentTag = 0xC4A12ull;

// Rooted canonical data for one candidate root: per-vertex subtree hash
// (edge-to-parent included via `lifted`), and children sorted canonically.
// All arrays live in the caller's arena: the children lists are one flat
// CSR-style (offsets, list) pair instead of the former vector-of-vectors,
// so canonicalizing a tree costs zero heap allocations beyond the arena.
struct RootedForm {
  const int* parent = nullptr;
  const int* parent_edge = nullptr;
  int* child_off = nullptr;   // n+1 offsets into child_list
  int* child_list = nullptr;  // children, sorted canonically per vertex
  Fingerprint* lifted = nullptr;  // subtree hash incl. parent edge
  Fingerprint root_hash;

  std::pair<const int*, const int*> children(int v) const {
    return {child_list + child_off[v], child_list + child_off[v + 1]};
  }
  int child_count(int v) const { return child_off[v + 1] - child_off[v]; }
};

// Sort key giving children a canonical order: subtree hash first, then the
// connecting edge weight.  Two children tying on all fields are
// (up to hash collision) interchangeable isomorphic subtrees.
struct ChildKey {
  std::uint64_t h_hi, h_lo, edge_bits;
  friend bool operator<(const ChildKey& a, const ChildKey& b) {
    if (a.h_hi != b.h_hi) return a.h_hi < b.h_hi;
    if (a.h_lo != b.h_lo) return a.h_lo < b.h_lo;
    return a.edge_bits < b.edge_bits;
  }
};

RootedForm rooted_form(const Tree& tree, const CsrView& g, int root,
                       util::Arena& arena) {
  std::size_t n = static_cast<std::size_t>(tree.n());
  RootedForm rf;
  RootedView rv = root_csr(g, root, arena);
  rf.parent = rv.parent;
  rf.parent_edge = rv.parent_edge;

  // Children as one flat CSR: count, prefix-sum, fill in BFS order.
  rf.child_off = arena.alloc_filled<int>(n + 1, 0);
  rf.child_list = arena.alloc_array<int>(n);  // every vertex but the root
  for (int i = 0; i < rv.n; ++i) {
    int v = rv.order[i];
    if (v != root) ++rf.child_off[rf.parent[v] + 1];
  }
  for (std::size_t v = 0; v < n; ++v) rf.child_off[v + 1] += rf.child_off[v];
  int* cursor = arena.alloc_array<int>(n);
  std::copy(rf.child_off, rf.child_off + n, cursor);
  for (int i = 0; i < rv.n; ++i) {
    int v = rv.order[i];
    if (v != root) rf.child_list[cursor[rf.parent[v]]++] = v;
  }

  Fingerprint* own = arena.alloc_array<Fingerprint>(n);  // excl. parent edge
  rf.lifted = arena.alloc_filled<Fingerprint>(n, {});
  // Reverse BFS order = children before parents.
  for (int i = rv.n - 1; i >= 0; --i) {
    int v = rv.order[i];
    int* kb = rf.child_list + rf.child_off[v];
    int* ke = rf.child_list + rf.child_off[v + 1];
    std::sort(kb, ke, [&](int a, int b) {
      const Fingerprint& ha = rf.lifted[a];
      const Fingerprint& hb = rf.lifted[b];
      ChildKey ka{ha.hi, ha.lo,
                  weight_bits(g.edge_weight[rf.parent_edge[a]])};
      ChildKey kb2{hb.hi, hb.lo,
                   weight_bits(g.edge_weight[rf.parent_edge[b]])};
      return ka < kb2;
    });
    Fingerprint h = seed_fp(kTreeTag);
    absorb(h, weight_bits(g.vertex_weight[v]));
    absorb(h, static_cast<std::uint64_t>(ke - kb));
    for (int* c = kb; c != ke; ++c) {
      const Fingerprint& hc = rf.lifted[*c];
      absorb(h, hc.hi);
      absorb(h, hc.lo);
    }
    own[v] = h;
    if (v != root) {
      Fingerprint up = own[v];
      absorb(up, weight_bits(g.edge_weight[rf.parent_edge[v]]));
      rf.lifted[v] = up;
    }
  }
  rf.root_hash = own[root];
  return rf;
}

// Centroid(s) of a free tree: vertices minimizing the largest component
// of T − v.  One or two exist; two only when they are adjacent.
struct Centroids {
  int c[2] = {0, 0};
  int count = 1;
};

Centroids centroids(const Tree& tree, const CsrView& g, util::Arena& arena) {
  int n = tree.n();
  Centroids out;
  if (n == 1) return out;
  util::ScratchFrame frame(&arena);
  RootedView rv = root_csr(g, 0, frame.arena());
  std::size_t un = static_cast<std::size_t>(n);
  int* size = frame->alloc_filled<int>(un, 1);
  int* heaviest_child = frame->alloc_filled<int>(un, 0);
  for (int i = n - 1; i >= 0; --i) {
    int v = rv.order[i];
    if (v == 0) continue;
    int p = rv.parent[v];
    size[p] += size[v];
    heaviest_child[p] = std::max(heaviest_child[p], size[v]);
  }
  int best = n + 1;
  out.count = 0;
  for (int v = 0; v < n; ++v) {
    int worst = std::max(heaviest_child[v], n - size[v]);
    if (worst < best) {
      best = worst;
      out.count = 0;
    }
    if (worst == best) {
      if (out.count < 2) out.c[out.count] = v;
      ++out.count;
    }
  }
  TGP_ENSURE(out.count >= 1 && out.count <= 2, "a tree has 1 or 2 centroids");
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

bool hash_less(const Fingerprint& a, const Fingerprint& b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}

// The canonical root — of the one or two centroids, the one with the
// smaller rooted subtree hash — its rooted form, and the fingerprint built
// from its hash.  tree_fingerprint and canonical_labelling both take their
// key from here, so the cache key and the labelling cannot drift apart.
struct CanonicalRoot {
  int root = 0;
  RootedForm form;
  Fingerprint fingerprint;
};

CanonicalRoot canonical_root(const Tree& tree, const CsrView& g,
                             util::Arena& arena) {
  Centroids cands = centroids(tree, g, arena);
  CanonicalRoot best{cands.c[0], rooted_form(tree, g, cands.c[0], arena), {}};
  if (cands.count == 2) {
    RootedForm other = rooted_form(tree, g, cands.c[1], arena);
    if (hash_less(other.root_hash, best.form.root_hash)) {
      best.root = cands.c[1];
      best.form = other;
    }
  }
  best.fingerprint = seed_fp(kTreeTag);
  absorb(best.fingerprint, static_cast<std::uint64_t>(tree.n()));
  absorb(best.fingerprint, best.form.root_hash.hi);
  absorb(best.fingerprint, best.form.root_hash.lo);
  return best;
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

CanonicalChain canonical_chain(const Chain& chain) {
  chain.validate();
  CanonicalChain out;
  out.reversed = reversal_is_smaller(chain);
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
  CsrView g = csr_from_tree(tree, frame.arena());
  CanonicalRoot best = canonical_root(tree, g, frame.arena());
  TreeLabelling out;
  out.fingerprint = best.fingerprint;

  // Preorder relabeling with canonical child order.
  out.orig_vertex.reserve(n);
  int* stack = frame->alloc_array<int>(n);
  int top = 0;
  stack[top++] = best.root;
  while (top > 0) {
    int v = stack[--top];
    out.orig_vertex.push_back(v);
    auto [kb, ke] = best.form.children(v);
    for (const int* it = ke; it != kb; --it) stack[top++] = *(it - 1);
  }
  int* new_index = frame->alloc_array<int>(n);
  for (std::size_t c = 0; c < n; ++c)
    new_index[out.orig_vertex[c]] = static_cast<int>(c);

  // Canonical vertex 0 is the root; every other vertex c hangs off its
  // parent by canonical edge c-1 (the numbering Tree::from_parents emits).
  out.parent.assign(n, -1);
  out.orig_edge.resize(n - 1);  // a Tree has at least one vertex
  for (std::size_t c = 1; c < n; ++c) {
    const int old = out.orig_vertex[c];
    out.parent[c] = new_index[best.form.parent[old]];
    out.orig_edge[c - 1] = best.form.parent_edge[old];
  }
  return out;
}

Tree build_canonical_tree(const Tree& tree, const TreeLabelling& labelling) {
  const std::size_t n = labelling.orig_vertex.size();
  TGP_REQUIRE(n == static_cast<std::size_t>(tree.n()),
              "labelling belongs to a tree of a different size");
  std::vector<Weight> vw(n);
  std::vector<Weight> pew(n, Weight{1});
  for (std::size_t c = 0; c < n; ++c)
    vw[c] = tree.vertex_weight(labelling.orig_vertex[c]);
  for (std::size_t c = 1; c < n; ++c)
    pew[c] = tree.edge(labelling.orig_edge[c - 1]).weight;
  return Tree::from_parents(std::move(vw), labelling.parent, pew);
}

CanonicalTree canonical_tree(const Tree& tree, util::Arena* arena) {
  TreeLabelling labelling = canonical_labelling(tree, arena);
  Tree built = build_canonical_tree(tree, labelling);
  return CanonicalTree{std::move(labelling), std::move(built)};
}

Fingerprint chain_fingerprint(const Chain& chain) {
  chain.validate();
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
  CsrView g = csr_from_tree(tree, frame.arena());
  return canonical_root(tree, g, frame.arena()).fingerprint;
}

Fingerprint chain_content_digest(const Chain& chain) {
  Fingerprint f = seed_fp(kChainContentTag);
  absorb(f, static_cast<std::uint64_t>(chain.n()));
  for (Weight w : chain.vertex_weight) absorb(f, weight_bits(w));
  for (Weight w : chain.edge_weight) absorb(f, weight_bits(w));
  return f;
}

}  // namespace tgp::graph
