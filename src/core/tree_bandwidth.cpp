#include "core/tree_bandwidth.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>

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
  const graph::TreeLayout L = graph::lay_out_tree(tree, frame.arena());
  const std::size_t un = static_cast<std::size_t>(n);
  const graph::Weight eps = graph::load_epsilon(L.total, n);
  // Accept loads only up to half the checker's tolerance (see proc_min).
  const graph::Weight k_eff = K + 0.5 * eps;

  // residual[p] is written when p is processed, after all its children;
  // shed[p] marks the edge from p up to its parent as cut.
  graph::Weight* residual = frame->alloc_array<graph::Weight>(un);
  unsigned char* shed = frame->alloc_filled<unsigned char>(un, 0);
  // Sort slots for one child block, and later for the cut positions.
  int* slots = frame->alloc_array<int>(un);
  constexpr int kExactFanout = 12;  // 2^12 subsets per node max

  // One shed-or-absorb decision per vertex (cf. proc_min's accounting).
  if (oc) oc->oracle_calls += static_cast<std::uint64_t>(n);

  // The per-vertex decision: children are finalized, so this only reads
  // their residuals and writes residual[p] plus the shed flags of p's
  // child block.
  auto process_vertex = [&](int p) {
    const int kb = L.first[p];
    const int child_count = L.first[p + 1] - kb;
    const graph::Weight* res = residual + kb;
    const graph::Weight* edge_w = L.edge_weight + kb;
    graph::Weight lump = L.vertex_weight[p];
    for (int c = 0; c < child_count; ++c) lump += res[c];
    if (lump <= k_eff) {
      residual[p] = lump;
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
        graph::Weight load_shed = 0, cost = 0;
        for (int c = 0; c < child_count; ++c) {
          if ((mask >> c) & 1u) {
            load_shed += res[c];
            cost += edge_w[c];
          }
        }
        if (load_shed < must_shed) continue;
        if (cost < best_cost ||
            (cost == best_cost && load_shed > best_shed)) {
          best_cost = cost;
          best_mask = mask;
          best_shed = load_shed;
        }
      }
      TGP_ENSURE(best_cost < kInf, "shedding all children must fit");
      for (int c = 0; c < child_count; ++c) {
        if ((best_mask >> c) & 1u) {
          lump -= res[c];
          shed[kb + c] = 1;
        }
      }
    } else {
      // Wide node: shed cheapest crossing weight per unit of load first.
      std::iota(slots, slots + child_count, kb);
      std::sort(slots, slots + child_count, [&](int a, int b) {
        return L.edge_weight[a] * residual[b] < L.edge_weight[b] * residual[a];
      });
      for (int c = 0; c < child_count; ++c) {
        if (lump <= k_eff) break;
        lump -= residual[slots[c]];
        shed[slots[c]] = 1;
      }
    }
    TGP_ENSURE(lump <= k_eff, "pruning did not reach the bound");
    residual[p] = lump;
  };

  // Bottom-up: reverse position order visits every child before its
  // parent.
  for (int k0 = 0; k0 < n; k0 += util::kPollStride) {
    if (cancel) cancel->poll();
    const int k1 = std::min(n, k0 + util::kPollStride);
    for (int k = k0; k < k1; ++k) process_vertex(n - 1 - k);
  }

  // Redundancy elimination: bottom-up shedding can leave expensive cuts
  // that later cuts higher in the tree made unnecessary.  Try to restore
  // edges, most expensive first, whenever the merged component still fits.
  {
    // Components of the tree minus the shed edges, labelled top down.
    int* comp = frame->alloc_array<int>(un);
    int comp_count = 1;
    comp[0] = 0;
    for (int p = 1; p < n; ++p)
      comp[p] = shed[p] ? comp_count++ : comp[L.parent[p]];
    // Component weights fold in ascending vertex order, the order the
    // frozen reference sums them in.
    int* comp_of_vertex = frame->alloc_array<int>(un);
    for (int p = 0; p < n; ++p) comp_of_vertex[L.vertex[p]] = comp[p];
    graph::Weight* comp_weight = frame->alloc_filled<graph::Weight>(
        static_cast<std::size_t>(comp_count), 0.0);
    const graph::Weight* vw = tree.vertex_weights().data();
    for (int v = 0; v < n; ++v) comp_weight[comp_of_vertex[v]] += vw[v];
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
    int* by_weight = slots;
    const int cut_count = comp_count - 1;
    for (int p = 1, i = 0; p < n; ++p)
      if (shed[p]) by_weight[i++] = p;
    // Strict total order (weight desc, edge index asc): equal-weight cut
    // edges restore in a fixed order no matter how the list was built.
    std::sort(by_weight, by_weight + cut_count, [&](int a, int b) {
      if (L.edge_weight[a] != L.edge_weight[b])
        return L.edge_weight[a] > L.edge_weight[b];
      return L.edge[a] < L.edge[b];
    });
    // A cut edge joins its child side's component to its parent's.  The
    // union's weight is a sum of the two sides either way round, so the
    // side that becomes the root does not change any later decision.
    for (int i = 0; i < cut_count; ++i) {
      const int p = by_weight[i];
      int a = find(comp[p]);
      int b = find(comp[L.parent[p]]);
      TGP_ENSURE(a != b, "cut edge inside one component");
      if (comp_weight[a] + comp_weight[b] <= k_eff) {
        dsu[a] = b;
        comp_weight[b] += comp_weight[a];
        shed[p] = 0;
      }
    }
    out.cut.edges.reserve(static_cast<std::size_t>(cut_count));
    for (int i = 0; i < cut_count; ++i)
      if (shed[by_weight[i]]) out.cut.edges.push_back(L.edge[by_weight[i]]);
    // Ascending edge order: Cut::canonical(), and the order the weight
    // folds in.
    std::sort(out.cut.edges.begin(), out.cut.edges.end());
    out.cut_weight = 0;
    for (int e : out.cut.edges) out.cut_weight += tree.edge(e).weight;
  }

  TGP_ENSURE(feasible_bottom_up(L, out.cut.edges, K + eps, frame.arena()),
             "greedy tree cut infeasible");
  return out;
}

}  // namespace tgp::core
