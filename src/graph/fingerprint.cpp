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

bool hash_less(const Fingerprint& a, const Fingerprint& b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
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
  // Lexicographic bit-pattern comparison of (vertex seq, edge seq) against
  // the reversal; ties (palindromes) keep the submitted orientation.
  int cmp = 0;
  int n = chain.n();
  for (int i = 0; cmp == 0 && i < n; ++i) {
    std::uint64_t a = weight_bits(chain.vertex_weight[static_cast<std::size_t>(i)]);
    std::uint64_t b = weight_bits(
        chain.vertex_weight[static_cast<std::size_t>(n - 1 - i)]);
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  }
  int m = chain.edge_count();
  for (int i = 0; cmp == 0 && i < m; ++i) {
    std::uint64_t a = weight_bits(chain.edge_weight[static_cast<std::size_t>(i)]);
    std::uint64_t b = weight_bits(
        chain.edge_weight[static_cast<std::size_t>(m - 1 - i)]);
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  }
  CanonicalChain out;
  out.reversed = cmp > 0;
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

CanonicalTree canonical_tree(const Tree& tree, util::Arena* arena) {
  int n = tree.n();
  util::ScratchFrame frame(arena);
  CsrView g = csr_from_tree(tree, frame.arena());
  Centroids cands = centroids(tree, g, frame.arena());
  RootedForm best = rooted_form(tree, g, cands.c[0], frame.arena());
  int root = cands.c[0];
  if (cands.count == 2) {
    RootedForm other = rooted_form(tree, g, cands.c[1], frame.arena());
    if (hash_less(other.root_hash, best.root_hash)) {
      best = other;
      root = cands.c[1];
    }
  }

  // Preorder relabeling with canonical child order.
  std::vector<int> orig_vertex;
  orig_vertex.reserve(static_cast<std::size_t>(n));
  int* stack = frame->alloc_array<int>(static_cast<std::size_t>(n));
  int top = 0;
  stack[top++] = root;
  while (top > 0) {
    int v = stack[--top];
    orig_vertex.push_back(v);
    auto [kb, ke] = best.children(v);
    for (const int* it = ke; it != kb; --it) stack[top++] = *(it - 1);
  }
  std::vector<int> new_index(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c)
    new_index[static_cast<std::size_t>(
        orig_vertex[static_cast<std::size_t>(c)])] = c;

  std::vector<Weight> vw(static_cast<std::size_t>(n));
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<Weight> pew(static_cast<std::size_t>(n), Weight{1});
  std::vector<int> orig_edge(static_cast<std::size_t>(n > 0 ? n - 1 : 0), -1);
  for (int c = 0; c < n; ++c) {
    int old = orig_vertex[static_cast<std::size_t>(c)];
    vw[static_cast<std::size_t>(c)] = tree.vertex_weight(old);
    if (old == root) continue;
    int pe = best.parent_edge[static_cast<std::size_t>(old)];
    parent[static_cast<std::size_t>(c)] =
        new_index[static_cast<std::size_t>(
            best.parent[static_cast<std::size_t>(old)])];
    pew[static_cast<std::size_t>(c)] = tree.edge(pe).weight;
    // Tree::from_parents emits edge c-1 for vertex c.
    orig_edge[static_cast<std::size_t>(c - 1)] = pe;
  }
  return CanonicalTree{Tree::from_parents(std::move(vw), parent, pew),
                       std::move(orig_vertex), std::move(orig_edge)};
}

Fingerprint chain_fingerprint(const Chain& chain) {
  chain.validate();
  // Decide the canonical orientation without materializing the reversed
  // copy: compare against the reversal, then absorb the weight streams in
  // the winning direction directly.
  int cmp = 0;
  int n = chain.n();
  for (int i = 0; cmp == 0 && i < n; ++i) {
    std::uint64_t a =
        weight_bits(chain.vertex_weight[static_cast<std::size_t>(i)]);
    std::uint64_t b = weight_bits(
        chain.vertex_weight[static_cast<std::size_t>(n - 1 - i)]);
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  }
  int m = chain.edge_count();
  for (int i = 0; cmp == 0 && i < m; ++i) {
    std::uint64_t a =
        weight_bits(chain.edge_weight[static_cast<std::size_t>(i)]);
    std::uint64_t b =
        weight_bits(chain.edge_weight[static_cast<std::size_t>(m - 1 - i)]);
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  }
  const bool reversed = cmp > 0;
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
  Centroids cands = centroids(tree, g, frame.arena());
  Fingerprint h = rooted_form(tree, g, cands.c[0], frame.arena()).root_hash;
  if (cands.count == 2) {
    Fingerprint h2 = rooted_form(tree, g, cands.c[1], frame.arena()).root_hash;
    if (hash_less(h2, h)) h = h2;
  }
  Fingerprint f = seed_fp(kTreeTag);
  absorb(f, static_cast<std::uint64_t>(tree.n()));
  absorb(f, h.hi);
  absorb(f, h.lo);
  return f;
}

Fingerprint chain_content_digest(const Chain& chain) {
  Fingerprint f = seed_fp(kChainContentTag);
  absorb(f, static_cast<std::uint64_t>(chain.n()));
  for (Weight w : chain.vertex_weight) absorb(f, weight_bits(w));
  for (Weight w : chain.edge_weight) absorb(f, weight_bits(w));
  return f;
}

}  // namespace tgp::graph
