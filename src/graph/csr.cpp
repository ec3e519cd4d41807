#include "graph/csr.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace tgp::graph {

namespace {

/// Elements per block of the prefix fold.  The association is part of
/// the output: each block is folded left to right from its base, and the
/// bases fold the per-block sums (each block's own fold from 0.0) left to
/// right.  Changing this constant changes the rounding of every prefix
/// array longer than one block, and with it the cuts, so it is fixed.
constexpr int kPrefixBlock = 16384;

/// What Chain::validate() asks of every weight.  `w <= DBL_MAX` rejects
/// +inf and NaN as std::isfinite does, without a call.
bool positive_finite(Weight w) {
  return (w > 0) & (w <= std::numeric_limits<Weight>::max());
}

// One pass: the running fold from the block's base goes to `prefix`
// while the block's own sum folds alongside it for the next base.  For
// n <= kPrefixBlock this is the plain left-to-right fold.  The same pass
// takes the largest weight, and returns whether every weight is positive
// and finite.
bool build_prefix(CsrView& v, util::Arena& arena) {
  const Weight* w = v.vertex_weight;
  const int n = v.n;
  Weight* prefix = arena.alloc_array<Weight>(static_cast<std::size_t>(n) + 1);
  prefix[0] = 0.0;
  Weight base = 0.0, max = 0.0;
  bool ok = true;
  for (int lo = 0; lo < n; lo += kPrefixBlock) {
    const int hi = std::min(n, lo + kPrefixBlock);
    Weight acc = base, sum = 0.0;
    for (int i = lo; i < hi; ++i) {
      prefix[i + 1] = acc += w[i];
      sum += w[i];
      max = std::max(max, w[i]);
      ok &= positive_finite(w[i]);
    }
    base += sum;
  }
  v.prefix = prefix;
  v.max_vertex_weight = max;
  return ok;
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
  build_prefix(v, arena);  // a Tree checked its weights when it was built
  return v;
}

CsrView csr_from_chain(const Chain& chain, util::Arena& arena) {
  TGP_REQUIRE(!chain.vertex_weight.empty(),
              "chain must have at least one vertex");
  TGP_REQUIRE(chain.edge_weight.size() + 1 == chain.vertex_weight.size(),
              "chain must have exactly n-1 edges");
  CsrView v;
  v.n = chain.n();
  v.m = chain.edge_count();
  v.vertex_weight = chain.vertex_weight.data();
  v.edge_weight = chain.edge_weight.data();
  const bool vertices_ok = build_prefix(v, arena);
  TGP_REQUIRE(vertices_ok, "vertex weights must be positive and finite");
  bool edges_ok = true;
  for (int e = 0; e < v.m; ++e) edges_ok &= positive_finite(v.edge_weight[e]);
  TGP_REQUIRE(edges_ok, "edge weights must be positive and finite");
  return v;
}

TreeLayout lay_out_tree(const Tree& tree, util::Arena& arena) {
  const int n = tree.n();
  const std::size_t un = static_cast<std::size_t>(n);
  TreeLayout L;
  L.n = n;
  L.vertex = arena.alloc_array<int>(un + 1);
  L.parent = arena.alloc_array<int>(un + 1);
  L.edge = arena.alloc_array<int>(un + 1);
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
  // The vertex array doubles as the BFS queue.  Skipping the half-edge
  // back to the parent is the whole visited test: a Tree has no cycles.
  // Every half-edge is written at the tail, and the tail moves on past
  // all but the one to the parent, which the next write overwrites; so
  // the loop has no branch on it, and the last vertex's parent half-edge
  // may land in the spare slot at position n.
  // The BFS reads only the offsets and the adjacency, and prefetches
  // both for vertices already queued a few positions on: their offsets
  // kAhead positions on, their half-edges half as far, by which time the
  // offsets are in cache.
  constexpr int kAhead = 16;
  int tail = 1;
  for (int p = 0; p < n; ++p) {
    if (p + kAhead < tail) __builtin_prefetch(off + L.vertex[p + kAhead]);
    if (p + kAhead / 2 < tail)
      __builtin_prefetch(adj + off[L.vertex[p + kAhead / 2]]);
    const int v = L.vertex[p];
    const int up = L.edge[p];
    L.first[p] = tail;
    for (int h = off[v]; h < off[v + 1]; ++h) {
      const auto [u, e] = adj[h];
      L.vertex[tail] = u;
      L.parent[tail] = p;
      L.edge[tail] = e;
      tail += e != up;
    }
  }
  L.first[n] = tail;
  TGP_ENSURE(tail == n, "tree is not connected");
  // The weight columns, gathered by position: independent loads, so
  // their misses overlap as the BFS's chained ones cannot.
  for (int p = 0; p < n; ++p) L.vertex_weight[p] = vw[L.vertex[p]];
  L.edge_weight[0] = 0.0;
  for (int p = 1; p < n; ++p) L.edge_weight[p] = edges[L.edge[p]].weight;
  L.total = blocked_total(vw, n);
  return L;
}

}  // namespace tgp::graph
