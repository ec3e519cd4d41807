#include "core/csr_feasible.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace tgp::core {

ComponentScratch::ComponentScratch(const graph::CsrView& g,
                                   util::Arena& arena)
    : removed(arena.alloc_filled<unsigned char>(
          static_cast<std::size_t>(g.m), 0)),
      comp(arena.alloc_array<int>(static_cast<std::size_t>(g.n))),
      stack(arena.alloc_array<int>(static_cast<std::size_t>(g.n))) {}

namespace {

/// Floods the component of `root` (already unlabelled) with label `c`
/// and returns its weight, giving up once the weight exceeds `limit`.
graph::Weight flood(const graph::CsrView& g, ComponentScratch& s, int root,
                    int c, graph::Weight limit) {
  int top = 0;
  s.stack[top++] = root;
  s.comp[root] = c;
  graph::Weight w = 0;
  while (top > 0) {
    const int v = s.stack[--top];
    w += g.vertex_weight[v];
    if (w > limit) return w;
    for (const auto& [u, e] : g.neighbors(v)) {
      if (s.removed[e] || s.comp[u] >= 0) continue;
      s.comp[u] = c;
      s.stack[top++] = u;
    }
  }
  return w;
}

}  // namespace

bool feasible_with_removed(const graph::CsrView& g, ComponentScratch& s,
                           graph::Weight limit) {
  std::fill(s.comp, s.comp + g.n, -1);
  int count = 0;
  for (int v = 0; v < g.n; ++v)
    if (s.comp[v] < 0 && flood(g, s, v, count++, limit) > limit) return false;
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
