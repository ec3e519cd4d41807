#include "core/csr_feasible.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace tgp::core {

ComponentScratch::ComponentScratch(const graph::CsrView& g,
                                   util::Arena& arena)
    : removed(arena.alloc_filled<unsigned char>(
          static_cast<std::size_t>(g.m), 0)),
      comp(arena.alloc_array<int>(static_cast<std::size_t>(g.n))),
      load(arena.alloc_array<graph::Weight>(static_cast<std::size_t>(g.n))),
      stack(arena.alloc_array<int>(static_cast<std::size_t>(g.n))) {}

namespace {

/// Weighs the component of `root` depth first and returns its weight,
/// giving up once the weight exceeds `limit`.  Vertices it has not reached
/// hold comp ≥ 0; it marks the ones it reaches with −1.
graph::Weight flood(const graph::CsrView& g, ComponentScratch& s, int root,
                    graph::Weight limit) {
  int top = 0;
  s.stack[top++] = root;
  s.comp[root] = -1;
  graph::Weight w = 0;
  while (top > 0) {
    const int v = s.stack[--top];
    w += g.vertex_weight[v];
    if (w > limit) return w;
    for (const auto& [u, e] : g.neighbors(v)) {
      if (s.removed[e] || s.comp[u] < 0) continue;
      s.comp[u] = -1;
      s.stack[top++] = u;
    }
  }
  return w;
}

}  // namespace

bool feasible_with_removed(const graph::CsrView& g, ComponentScratch& s,
                           graph::Weight limit) {
  const int n = g.n;
  std::iota(s.comp, s.comp + n, 0);
  std::copy(g.vertex_weight, g.vertex_weight + n, s.load);
  auto find = [&s](int v) {
    while (s.comp[v] != v) v = s.comp[v] = s.comp[s.comp[v]];
    return v;
  };
  for (int e = 0; e < g.m; ++e) {
    if (s.removed[e]) continue;
    // The lower root stays a root, so each root is its lowest vertex.
    int a = find(g.edge_u[e]);
    int b = find(g.edge_v[e]);
    if (a > b) std::swap(a, b);
    s.comp[b] = a;
    s.load[a] += s.load[b];
  }
  // Two sums of one component in different orders differ by at most about
  // n·2^-52·total, a sixteenth of eps.
  const graph::Weight half_eps =
      0.5 * graph::load_epsilon(g.total_vertex_weight(), n);
  for (int v = 0; v < n; ++v) {
    if (s.comp[v] != v || s.load[v] < limit - half_eps) continue;
    if (s.load[v] > limit + half_eps || flood(g, s, v, limit) > limit)
      return false;
  }
  return true;
}

bool feasible_bottom_up(const graph::TreeLayout& layout,
                        std::span<const int> cut, graph::Weight limit,
                        util::Arena& arena) {
  const int n = layout.n;
  util::ScratchFrame frame(&arena);
  // Flags by edge index; n of them cover a tree's n − 1 edges.
  unsigned char* removed = frame->alloc_filled<unsigned char>(
      static_cast<std::size_t>(n), 0);
  for (int e : cut) {
    TGP_REQUIRE(0 <= e && e < n - 1, "cut edge index out of range");
    removed[e] = 1;
  }
  graph::Weight* load =
      frame->alloc_array<graph::Weight>(static_cast<std::size_t>(n));
  std::copy(layout.vertex_weight, layout.vertex_weight + n, load);
  for (int p = n - 1; p > 0; --p) {
    if (!removed[layout.edge[p]])
      load[layout.parent[p]] += load[p];
    else if (load[p] > limit)
      return false;
  }
  return load[0] <= limit;
}

}  // namespace tgp::core
