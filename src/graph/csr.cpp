#include "graph/csr.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace tgp::graph {

namespace {

/// Elements per block of the prefix fold.  The association is part of
/// the output: each block is folded left to right from its base, and the
/// bases fold the per-block sums (each block's own fold from 0.0) left to
/// right.  Changing this constant changes the rounding of every prefix
/// array longer than one block, and with it the cuts, so it is fixed.
constexpr int kPrefixBlock = 16384;

// One pass: the running fold from the block's base goes to `prefix`
// while the block's own sum folds alongside it for the next base.  For
// n <= kPrefixBlock this is the plain left-to-right fold.
Weight* build_prefix(const Weight* w, int n, util::Arena& arena) {
  Weight* prefix = arena.alloc_array<Weight>(static_cast<std::size_t>(n) + 1);
  prefix[0] = 0.0;
  Weight base = 0.0;
  for (int lo = 0; lo < n; lo += kPrefixBlock) {
    const int hi = std::min(n, lo + kPrefixBlock);
    Weight acc = base, sum = 0.0;
    for (int i = lo; i < hi; ++i) {
      prefix[i + 1] = acc += w[i];
      sum += w[i];
    }
    base += sum;
  }
  return prefix;
}

}  // namespace

CsrView csr_from_tree(const Tree& tree, util::Arena& arena) {
  CsrView v;
  v.n = tree.n();
  v.m = tree.edge_count();
  v.offsets = tree.adjacency_offsets().data();
  v.adj = tree.adjacency_flat().data();
  v.vertex_weight = tree.vertex_weights().data();
  int* eu = arena.alloc_array<int>(static_cast<std::size_t>(v.m));
  int* ev = arena.alloc_array<int>(static_cast<std::size_t>(v.m));
  Weight* ew = arena.alloc_array<Weight>(static_cast<std::size_t>(v.m));
  const std::vector<TreeEdge>& edges = tree.edges();
  for (int e = 0; e < v.m; ++e) {
    eu[e] = edges[static_cast<std::size_t>(e)].u;
    ev[e] = edges[static_cast<std::size_t>(e)].v;
    ew[e] = edges[static_cast<std::size_t>(e)].weight;
  }
  v.edge_u = eu;
  v.edge_v = ev;
  v.edge_weight = ew;
  v.prefix = build_prefix(v.vertex_weight, v.n, arena);
  return v;
}

CsrView csr_from_chain(const Chain& chain, util::Arena& arena) {
  CsrView v;
  v.n = chain.n();
  v.m = chain.edge_count();
  v.vertex_weight = chain.vertex_weight.data();
  v.edge_weight = chain.edge_weight.data();
  v.prefix = build_prefix(v.vertex_weight, v.n, arena);
  return v;
}

RootedView root_csr(const CsrView& g, int root, util::Arena& arena) {
  TGP_REQUIRE(g.offsets != nullptr, "root_csr needs adjacency");
  TGP_REQUIRE(0 <= root && root < g.n, "root out of range");
  std::size_t n = static_cast<std::size_t>(g.n);
  RootedView rv;
  rv.n = g.n;
  int* order = arena.alloc_array<int>(n);
  int* parent = arena.alloc_filled<int>(n, -1);
  int* parent_edge = arena.alloc_filled<int>(n, -1);
  // The order array doubles as the BFS queue; parent[] doubles as the
  // visited mark (−1 = unseen, except the root which is pinned below).
  order[0] = root;
  int tail = 1;
  for (int head = 0; head < tail; ++head) {
    int v = order[head];
    for (auto [u, e] : g.neighbors(v)) {
      if (u == root || parent[u] != -1) continue;
      parent[u] = v;
      parent_edge[u] = e;
      order[tail++] = u;
    }
  }
  TGP_ENSURE(tail == g.n, "tree CSR is not connected");
  rv.order = order;
  rv.parent = parent;
  rv.parent_edge = parent_edge;
  return rv;
}

}  // namespace tgp::graph
