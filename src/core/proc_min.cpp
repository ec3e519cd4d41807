#include "core/proc_min.hpp"

#include <algorithm>
#include <climits>
#include <map>
#include <numeric>

#include "core/csr_feasible.hpp"
#include "graph/csr.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace tgp::core {

ProcMinResult proc_min(const graph::Tree& tree, graph::Weight K,
                       std::vector<ProcMinStep>* trace,
                       const util::CancelToken* cancel, util::Arena* arena) {
  TGP_SPAN("core", "proc_min");
  if (trace) trace->clear();
  TGP_REQUIRE(K >= tree.max_vertex_weight(),
              "K must be at least the maximum vertex weight");
  obs::SolveCounters* oc = obs::active_counters();
  const int n = tree.n();
  ProcMinResult out;
  if (n == 1) return out;

  util::ScratchFrame frame(arena);
  // Positions from one BFS, processed in reverse: when vertex v is
  // processed every child has been contracted to a residual-weight leaf,
  // which is exactly the paper's "internal node adjacent to at most one
  // internal node" schedule.
  const graph::TreeLayout L = graph::lay_out_tree(tree, frame.arena());
  const graph::Weight eps = graph::load_epsilon(L.total, n);
  // Accept loads only up to half the checker's tolerance: the greedy
  // accumulates component weights in a different order than the
  // feasibility checker, so its acceptance margin must sit strictly
  // inside the checker's.
  const graph::Weight k_eff = K + 0.5 * eps;

  // residual[p] is written when p is processed, after all its children.
  graph::Weight* residual =
      frame->alloc_array<graph::Weight>(static_cast<std::size_t>(n));
  // Sort slots for one child block; a block is at most n − 1 long.
  int* children = frame->alloc_array<int>(static_cast<std::size_t>(n));
  util::ArenaVector<int> cut_edges(frame.arena(),
                                   static_cast<std::size_t>(n - 1));

  for (int p = n - 1; p >= 0; --p) {
    if (cancel) cancel->poll();
    // Lump the contracted children (paper: leaves adjacent to v).
    const int kb = L.first[p];
    const int child_count = L.first[p + 1] - kb;
    graph::Weight lump = L.vertex_weight[p];
    for (int c = kb; c < kb + child_count; ++c) lump += residual[c];
    // One lump-fits decision per processed vertex: the unit step of the
    // paper's O(n) Algorithm 3.2 accounting.
    if (oc) ++oc->oracle_calls;
    if (lump <= k_eff) {  // step 4: absorb all leaves
      residual[p] = lump;
      if (trace && child_count > 0)
        trace->push_back({L.vertex[p], lump, {}, lump});
      continue;
    }
    // Step 5: prune heaviest leaves until the lump fits.
    std::iota(children, children + child_count, kb);
    std::sort(children, children + child_count,
              [&](int a, int b) { return residual[a] > residual[b]; });
    graph::Weight original_lump = lump;
    std::vector<int> pruned;  // trace-only; empty unless requested
    for (int ci = 0; ci < child_count; ++ci) {
      if (lump <= k_eff) break;
      int c = children[ci];
      lump -= residual[c];
      cut_edges.push_back(L.edge[c]);
      if (trace) pruned.push_back(L.vertex[c]);
    }
    TGP_ENSURE(lump <= k_eff, "pruning all leaves must fit (w(v) <= K)");
    residual[p] = lump;
    if (trace)
      trace->push_back({L.vertex[p], original_lump, std::move(pruned), lump});
  }

  // The pruned parent edges are distinct, so sorting the collected list is
  // exactly Cut::canonical() without the intermediate copies.
  out.cut.edges.assign(cut_edges.begin(), cut_edges.end());
  std::sort(out.cut.edges.begin(), out.cut.edges.end());
  out.components = out.cut.size() + 1;
  TGP_ENSURE(feasible_bottom_up(L, out.cut.edges, K + eps, frame.arena()),
             "proc_min produced an infeasible cut");
  return out;
}

ProcMinResult proc_min_oracle(const graph::Tree& tree, graph::Weight K) {
  TGP_REQUIRE(K >= tree.max_vertex_weight(),
              "K must be at least the maximum vertex weight");
  const int n = tree.n();
  ProcMinResult out;
  if (n == 1) return out;

  std::vector<int> parent, parent_edge;
  tree.root_at(0, parent, parent_edge);
  std::vector<int> order = tree.bfs_order(0);
  // Accept loads only up to half the checker's tolerance: the greedy
  // accumulates component weights in a different order than the
  // feasibility checker, so its acceptance margin must sit strictly
  // inside the checker's.
  const graph::Weight k_eff =
      K + 0.5 * graph::load_epsilon(tree.total_vertex_weight(), n);

  // dp[v]: map residual-weight-of-v's-component → minimum cut count in
  // v's subtree, keeping only Pareto-optimal states (increasing residual
  // must strictly decrease cuts).
  std::vector<std::map<graph::Weight, int>> dp(static_cast<std::size_t>(n));

  auto pareto_insert = [](std::map<graph::Weight, int>& m, graph::Weight w,
                          int cuts) {
    auto it = m.lower_bound(w);
    // Dominated by an existing lighter-or-equal state with fewer-or-equal
    // cuts?
    for (auto scan = m.begin(); scan != it; ++scan)
      if (scan->second <= cuts) return;
    if (it != m.end() && it->first == w && it->second <= cuts) return;
    // Remove states this one dominates (heavier or equal, >= cuts).
    auto scan = m.lower_bound(w);
    while (scan != m.end()) {
      if (scan->second >= cuts)
        scan = m.erase(scan);
      else
        ++scan;
    }
    m[w] = cuts;
  };

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int v = *it;
    std::map<graph::Weight, int> cur;
    cur[tree.vertex_weight(v)] = 0;
    for (auto [u, e] : tree.neighbors(v)) {
      if (parent[static_cast<std::size_t>(u)] != v) continue;
      std::map<graph::Weight, int> next;
      // Child's best when its component is sealed by cutting edge (u,v).
      int child_best_cuts = INT_MAX;
      for (const auto& [w, c] : dp[static_cast<std::size_t>(u)])
        child_best_cuts = std::min(child_best_cuts, c);
      for (const auto& [wv, cv] : cur) {
        // Option A: cut the edge to u.
        pareto_insert(next, wv, cv + child_best_cuts + 1);
        // Option B: merge u's component into v's.
        for (const auto& [wu, cu] : dp[static_cast<std::size_t>(u)]) {
          if (wv + wu <= k_eff) pareto_insert(next, wv + wu, cv + cu);
        }
      }
      cur = std::move(next);
    }
    TGP_ENSURE(!cur.empty(), "oracle state set emptied (K too small?)");
    dp[static_cast<std::size_t>(v)] = std::move(cur);
  }

  int best = INT_MAX;
  for (const auto& [w, c] : dp[0]) best = std::min(best, c);
  out.components = best + 1;
  // The oracle reports only the optimal count (no cut reconstruction);
  // tests compare counts.
  return out;
}

TreePartitionResult bottleneck_then_proc_min(const graph::Tree& tree,
                                             graph::Weight K,
                                             const util::CancelToken* cancel,
                                             util::Arena* arena) {
  TGP_SPAN("core", "bottleneck_then_proc_min");
  BottleneckResult stage1 = bottleneck_min_bsearch(tree, K, cancel, arena);
  std::vector<int> original_edge;
  graph::Tree contracted =
      graph::contract_components(tree, stage1.cut, &original_edge);
  // Stage 1 keeps components up to the checker's K + eps, so a
  // super-node may weigh a rounding error more than K (0.1 + 0.2 under
  // K = 0.3), which proc_min's precondition rejects.  Such a super-node
  // is full: it enters stage 2 at weight K, where nothing heavier than
  // proc_min's half-eps margin can join it.  (Raising proc_min's bound
  // instead would let it merge lighter super-nodes past K + eps.)
  if (contracted.max_vertex_weight() > K) {
    std::vector<graph::Weight> capped = contracted.vertex_weights();
    for (graph::Weight& w : capped) w = std::min(w, K);
    contracted = graph::Tree::from_edges(capped, contracted.edges());
  }
  ProcMinResult stage2 = proc_min(contracted, K, nullptr, cancel, arena);

  TreePartitionResult out;
  out.bottleneck = stage1.threshold;
  out.components = stage2.components;
  out.cut.edges.reserve(stage2.cut.edges.size());
  for (int e : stage2.cut.edges)
    out.cut.edges.push_back(original_edge[static_cast<std::size_t>(e)]);
  out.cut = out.cut.canonical();
  TGP_ENSURE(graph::tree_cut_feasible(tree, out.cut, K),
             "pipeline produced an infeasible cut");
  return out;
}

}  // namespace tgp::core
