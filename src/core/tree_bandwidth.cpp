#include "core/tree_bandwidth.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "core/csr_feasible.hpp"
#include "graph/csr.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace tgp::core {

namespace {
constexpr graph::Weight kInf = std::numeric_limits<graph::Weight>::infinity();
}  // namespace

TreeBandwidthResult tree_bandwidth_oracle(const graph::Tree& tree,
                                          graph::Weight K,
                                          std::size_t max_states,
                                          const util::CancelToken* cancel) {
  TGP_REQUIRE(K >= tree.max_vertex_weight(),
              "K must be at least the maximum vertex weight");
  const int n = tree.n();
  TreeBandwidthResult out;
  if (n == 1) return out;

  std::vector<int> parent, parent_edge;
  tree.root_at(0, parent, parent_edge);
  std::vector<int> order = tree.bfs_order(0);
  const graph::Weight k_eff =
      K + graph::load_epsilon(tree.total_vertex_weight(), n);

  // dp[v]: residual weight of v's (open) component → minimum cut weight
  // in v's subtree; Pareto-pruned (larger residual must buy strictly
  // smaller cut weight).
  std::vector<std::map<graph::Weight, graph::Weight>> dp(
      static_cast<std::size_t>(n));

  auto pareto_insert = [&](std::map<graph::Weight, graph::Weight>& m,
                           graph::Weight w, graph::Weight cost) {
    auto it = m.lower_bound(w);
    for (auto scan = m.begin(); scan != it; ++scan)
      if (scan->second <= cost) return;  // dominated by lighter state
    if (it != m.end() && it->first == w && it->second <= cost) return;
    auto scan = m.lower_bound(w);
    while (scan != m.end()) {
      if (scan->second >= cost)
        scan = m.erase(scan);
      else
        ++scan;
    }
    m[w] = cost;
  };

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (cancel) cancel->poll();
    int v = *it;
    std::map<graph::Weight, graph::Weight> cur;
    cur[tree.vertex_weight(v)] = 0;
    for (auto [u, e] : tree.neighbors(v)) {
      if (parent[static_cast<std::size_t>(u)] != v) continue;
      graph::Weight edge_w = tree.edge(e).weight;
      graph::Weight child_sealed = kInf;
      for (const auto& [wu, cu] : dp[static_cast<std::size_t>(u)])
        child_sealed = std::min(child_sealed, cu);
      std::map<graph::Weight, graph::Weight> next;
      for (const auto& [wv, cv] : cur) {
        // Option A: cut edge (v,u) — pay δ(e) plus the child's best.
        pareto_insert(next, wv, cv + child_sealed + edge_w);
        // Option B: merge the child's open component into v's.
        for (const auto& [wu, cu] : dp[static_cast<std::size_t>(u)])
          if (wv + wu <= k_eff) pareto_insert(next, wv + wu, cv + cu);
      }
      TGP_REQUIRE(next.size() <= max_states,
                  "Pareto state budget exceeded (Theorem 1 in action)");
      cur = std::move(next);
    }
    TGP_ENSURE(!cur.empty(), "state set emptied (K too small?)");
    dp[static_cast<std::size_t>(v)] = std::move(cur);
  }

  graph::Weight best = kInf;
  for (const auto& [w, c] : dp[0]) best = std::min(best, c);
  out.cut_weight = best;
  // Weight-only oracle (no cut reconstruction); tests compare weights.
  return out;
}

TreeBandwidthResult tree_bandwidth_greedy(const graph::Tree& tree,
                                          graph::Weight K,
                                          const util::CancelToken* cancel,
                                          util::Arena* arena) {
  TGP_SPAN("core", "tree_bandwidth_greedy");
  TGP_REQUIRE(K >= tree.max_vertex_weight(),
              "K must be at least the maximum vertex weight");
  obs::SolveCounters* oc = obs::active_counters();
  const int n = tree.n();
  TreeBandwidthResult out;
  if (n == 1) return out;

  util::ScratchFrame frame(arena);
  graph::CsrView g = graph::csr_from_tree(tree, frame.arena());
  graph::RootedView rooted = graph::root_csr(g, 0, frame.arena());
  // Accept loads only up to half the checker's tolerance (see proc_min).
  const graph::Weight k_eff =
      K + 0.5 * graph::load_epsilon(g.total_vertex_weight(), n);

  graph::Weight* residual =
      frame->alloc_array<graph::Weight>(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) residual[v] = g.vertex_weight[v];

  struct Child {
    int vertex;
    int edge;
    graph::Weight res;
    graph::Weight edge_w;
  };
  constexpr int kExactFanout = 12;  // 2^12 subsets per node max
  // Shed decisions write cut flags (disjoint per vertex); the edge list
  // is rebuilt from the flags afterwards.
  ComponentScratch scratch(g, frame.arena());

  // One shed-or-absorb decision per vertex (cf. proc_min's accounting).
  if (oc) oc->oracle_calls += static_cast<std::uint64_t>(n);

  // The per-vertex decision: children are finalized, so this only reads
  // their residuals and writes residual[v] plus the cut flags of v's
  // child edges.
  auto process_vertex = [&](int v) {
    util::ScratchFrame task_frame(&frame.arena());
    Child* children = task_frame->alloc_array<Child>(
        static_cast<std::size_t>(g.degree(v)));
    int child_count = 0;
    graph::Weight lump = residual[v];
    for (auto [u, e] : g.neighbors(v)) {
      if (rooted.parent[u] != v) continue;
      children[child_count++] = {u, e, residual[u], g.edge_weight[e]};
      lump += residual[u];
    }
    if (lump <= k_eff) {
      residual[v] = lump;
      return;
    }
    graph::Weight must_shed = lump - k_eff;
    if (child_count <= kExactFanout) {
      // Per-node optimal shed: cheapest subset of child edges removing at
      // least `must_shed` weight; among those, shed the most (a smaller
      // residual can only help the ancestors).
      const std::uint32_t limit = 1u << child_count;
      std::uint32_t best_mask = limit - 1;
      graph::Weight best_cost = kInf;
      graph::Weight best_shed = 0;
      for (std::uint32_t mask = 0; mask < limit; ++mask) {
        graph::Weight shed = 0, cost = 0;
        for (int c = 0; c < child_count; ++c) {
          if ((mask >> c) & 1u) {
            shed += children[c].res;
            cost += children[c].edge_w;
          }
        }
        if (shed < must_shed) continue;
        if (cost < best_cost ||
            (cost == best_cost && shed > best_shed)) {
          best_cost = cost;
          best_mask = mask;
          best_shed = shed;
        }
      }
      TGP_ENSURE(best_cost < kInf, "shedding all children must fit");
      for (int c = 0; c < child_count; ++c) {
        if ((best_mask >> c) & 1u) {
          lump -= children[c].res;
          scratch.removed[children[c].edge] = 1;
        }
      }
    } else {
      // Wide node: shed cheapest crossing weight per unit of load first.
      std::sort(children, children + child_count,
                [](const Child& a, const Child& b) {
                  return a.edge_w * b.res < b.edge_w * a.res;
                });
      for (int c = 0; c < child_count; ++c) {
        if (lump <= k_eff) break;
        lump -= children[c].res;
        scratch.removed[children[c].edge] = 1;
      }
    }
    TGP_ENSURE(lump <= k_eff, "pruning did not reach the bound");
    residual[v] = lump;
  };

  // Bottom-up: reverse BFS order visits every child before its parent.
  for (int k0 = 0; k0 < n; k0 += util::kPollStride) {
    if (cancel) cancel->poll();
    const int k1 = std::min(n, k0 + util::kPollStride);
    for (int k = k0; k < k1; ++k) process_vertex(rooted.order[n - 1 - k]);
  }

  // Rebuild the cut-edge list from the flags in ascending edge order (the
  // flag set, not the discovery order, is what the passes below consume).
  util::ArenaVector<int> cut_edges(frame.arena(),
                                   static_cast<std::size_t>(g.m));
  for (int e = 0; e < g.m; ++e)
    if (scratch.removed[e]) cut_edges.push_back(e);

  // Redundancy elimination: bottom-up shedding can leave expensive cuts
  // that later cuts higher in the tree made unnecessary.  Try to restore
  // edges, most expensive first, whenever the merged component still fits.
  {
    int comp_count = assign_components(g, scratch);
    component_weights(g, scratch, comp_count);
    graph::Weight* comp_weight = scratch.comp_w;
    const int* comp_of = scratch.comp;
    // Union-find over components as edges are restored.
    int* dsu = frame->alloc_array<int>(static_cast<std::size_t>(comp_count));
    for (int i = 0; i < comp_count; ++i) dsu[i] = i;
    auto find = [&](int x) {
      while (dsu[x] != x) {
        dsu[x] = dsu[dsu[x]];
        x = dsu[x];
      }
      return x;
    };
    int* by_weight =
        frame->alloc_array<int>(static_cast<std::size_t>(cut_edges.size()));
    std::copy(cut_edges.begin(), cut_edges.end(), by_weight);
    // Strict total order (weight desc, edge index asc): equal-weight cut
    // edges restore in a fixed order no matter how the list was built.
    std::sort(by_weight, by_weight + cut_edges.size(), [&](int a, int b) {
      if (g.edge_weight[a] != g.edge_weight[b])
        return g.edge_weight[a] > g.edge_weight[b];
      return a < b;
    });
    // scratch.removed doubles as the keep-this-cut flag set.
    for (std::size_t i = 0; i < cut_edges.size(); ++i) {
      int e = by_weight[i];
      int a = find(comp_of[g.edge_u[e]]);
      int b = find(comp_of[g.edge_v[e]]);
      TGP_ENSURE(a != b, "cut edge inside one component");
      if (comp_weight[a] + comp_weight[b] <= k_eff) {
        dsu[a] = b;
        comp_weight[b] += comp_weight[a];
        scratch.removed[e] = 0;
      }
    }
    out.cut.edges.reserve(cut_edges.size());
    out.cut_weight = 0;
    for (int e = 0; e < g.m; ++e) {
      if (scratch.removed[e]) {
        out.cut.edges.push_back(e);
        out.cut_weight += g.edge_weight[e];
      }
    }
  }

  // The ascending-e rebuild above is already canonical (sorted, unique).
  {
    const graph::Weight limit =
        K + graph::load_epsilon(g.total_vertex_weight(), n);
    std::fill(scratch.removed, scratch.removed + g.m, 0);
    for (int e : out.cut.edges) scratch.removed[e] = 1;
    TGP_ENSURE(feasible_with_removed(g, scratch, limit),
               "greedy tree cut infeasible");
  }
  return out;
}

}  // namespace tgp::core
