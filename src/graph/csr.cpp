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

// build_prefix's prefix[n] without the array: the blocks before the
// last fold their own sums into the base, and the last block folds onto
// the base.
Weight blocked_total(const Weight* w, int n) {
  Weight base = 0.0;
  int lo = 0;
  for (; n - lo > kPrefixBlock; lo += kPrefixBlock) {
    Weight sum = 0.0;
    for (int i = lo; i < lo + kPrefixBlock; ++i) sum += w[i];
    base += sum;
  }
  for (int i = lo; i < n; ++i) base += w[i];
  return base;
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

TreeLayout lay_out_tree(const Tree& tree, util::Arena& arena) {
  const int n = tree.n();
  const std::size_t un = static_cast<std::size_t>(n);
  TreeLayout L;
  L.n = n;
  L.vertex = arena.alloc_array<int>(un);
  L.parent = arena.alloc_array<int>(un);
  L.edge = arena.alloc_array<int>(un);
  L.vertex_weight = arena.alloc_array<Weight>(un);
  L.edge_weight = arena.alloc_array<Weight>(un);
  L.first = arena.alloc_array<int>(un + 1);
  const int* off = tree.adjacency_offsets().data();
  const std::pair<int, int>* adj = tree.adjacency_flat().data();
  const TreeEdge* edges = tree.edges().data();
  const Weight* vw = tree.vertex_weights().data();
  L.vertex[0] = 0;
  L.parent[0] = -1;
  L.edge[0] = -1;
  L.edge_weight[0] = 0.0;
  // The vertex array doubles as the BFS queue.  Skipping the half-edge
  // back to the parent is the whole visited test: a Tree has no cycles.
  int tail = 1;
  for (int p = 0; p < n; ++p) {
    const int v = L.vertex[p];
    const int up = L.edge[p];
    L.vertex_weight[p] = vw[v];
    L.first[p] = tail;
    for (int h = off[v]; h < off[v + 1]; ++h) {
      const auto [u, e] = adj[h];
      if (e == up) continue;
      L.vertex[tail] = u;
      L.parent[tail] = p;
      L.edge[tail] = e;
      L.edge_weight[tail] = edges[e].weight;
      ++tail;
    }
  }
  L.first[n] = tail;
  TGP_ENSURE(tail == n, "tree is not connected");
  L.total = blocked_total(vw, n);
  return L;
}

}  // namespace tgp::graph
