#include "core/bottleneck_min.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>

#include "core/csr_feasible.hpp"
#include "graph/csr.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"

namespace tgp::core {

namespace {

void check_preconditions(const graph::Tree& tree, graph::Weight K) {
  TGP_REQUIRE(K >= tree.max_vertex_weight(),
              "K must be at least the maximum vertex weight");
}

/// Edge indices sorted by (weight, index), so equal weights keep index
/// order.  Tree::from_edges admits only positive finite weights, whose
/// bit patterns (sign bit 0) order as the weights do: a stable LSD radix
/// sort over the 63 low bits, 11 at a time, that starts from index order
/// yields exactly that order.  Every digit's histogram fills in one
/// counting pass, and a pass whose digit is the same in every key is
/// skipped.  Only `order` outlives the call.
int* edges_by_weight(const graph::CsrView& g, util::Arena& arena) {
  constexpr int kBits = 11;
  constexpr int kRadix = 1 << kBits;
  constexpr int kDigits = (63 + kBits - 1) / kBits;
  const int m = g.m;
  const std::size_t um = static_cast<std::size_t>(m);
  int* order = arena.alloc_array<int>(um);
  if (m == 0) return order;
  util::ScratchFrame frame(&arena);
  auto digit = [](std::uint64_t key, int d) {
    return static_cast<int>((key >> (kBits * d)) & (kRadix - 1));
  };
  std::uint64_t* keys[2] = {frame->alloc_array<std::uint64_t>(um),
                            frame->alloc_array<std::uint64_t>(um)};
  int* count = frame->alloc_filled<int>(kDigits * kRadix, 0);
  for (int e = 0; e < m; ++e) {
    const auto key = std::bit_cast<std::uint64_t>(g.edge_weight[e]);
    keys[0][e] = key;
    for (int d = 0; d < kDigits; ++d) ++count[d * kRadix + digit(key, d)];
  }
  int live[kDigits];
  int passes = 0;
  for (int d = 0; d < kDigits; ++d)
    if (count[d * kRadix + digit(keys[0][0], d)] != m) live[passes++] = d;
  // The index buffers alternate too; start in the one the last pass
  // leaves in `order`.
  int* idx[2] = {order, frame->alloc_array<int>(um)};
  if (passes % 2 == 1) std::swap(idx[0], idx[1]);
  std::iota(idx[0], idx[0] + m, 0);
  for (int p = 0; p < passes; ++p) {
    const int d = live[p];
    int* next = count + d * kRadix;
    for (int b = 0, at = 0; b < kRadix; ++b)
      at += std::exchange(next[b], at);
    const std::uint64_t* src_key = keys[p % 2];
    const int* src_idx = idx[p % 2];
    std::uint64_t* dst_key = keys[1 - p % 2];
    int* dst_idx = idx[1 - p % 2];
    for (int i = 0; i < m; ++i) {
      const int at = next[digit(src_key[i], d)]++;
      dst_key[at] = src_key[i];
      dst_idx[at] = src_idx[i];
    }
  }
  return order;
}

/// Weighs one component in exactly the order feasible_with_removed's flood
/// does — depth first from its lowest vertex, neighbours in CSR order — so
/// keep the two in step.  Edges before position `cut` of the ascending
/// order count as removed.  Built only once a union's sum lands too close
/// to the limit to call; its arrays live in the union pass's frame.
class CheckerSum {
 public:
  CheckerSum(const graph::CsrView& g, const int* order, util::Arena& arena)
      : g_(g),
        rank_(arena.alloc_array<int>(static_cast<std::size_t>(g.m))),
        seen_(arena.alloc_filled<int>(static_cast<std::size_t>(g.n), 0)),
        stack_(arena.alloc_array<int>(static_cast<std::size_t>(g.n))) {
    for (int i = 0; i < g.m; ++i) rank_[order[i]] = i;
  }

  graph::Weight weight_of(int v, int cut) {
    int low = v;
    walk(v, cut, [&](int u) { low = std::min(low, u); });
    graph::Weight w = 0;
    walk(low, cut, [&](int u) { w += g_.vertex_weight[u]; });
    return w;
  }

 private:
  template <class Visit>
  void walk(int root, int cut, Visit visit) {
    ++stamp_;
    int top = 0;
    stack_[top++] = root;
    seen_[root] = stamp_;
    while (top > 0) {
      const int v = stack_[--top];
      visit(v);
      for (const auto& [u, e] : g_.neighbors(v)) {
        if (rank_[e] < cut || seen_[u] == stamp_) continue;
        seen_[u] = stamp_;
        stack_[top++] = u;
      }
    }
  }

  const graph::CsrView& g_;
  int* rank_;
  int* seen_;
  int* stack_;
  int stamp_ = 0;
};

/// Length of the shortest feasible prefix of `order` (at least 1): unions
/// the edges heaviest first — union by size, path halving, component
/// weights at the roots — until a union would push a component past
/// `limit`.  That edge is the last one the prefix must cut.  A union whose
/// sum lies within `slack` of `limit` is decided by the checker's own sum.
int shortest_feasible_prefix(const graph::CsrView& g, const int* order,
                             graph::Weight limit, graph::Weight slack,
                             const util::CancelToken* cancel,
                             util::Arena& arena) {
  // One record per vertex, so the root a find ends at brings its weight
  // and size in on the same cache line.
  struct Node {
    graph::Weight weight;
    int parent;
    int size;
  };
  util::ScratchFrame frame(&arena);
  Node* node = frame->alloc_array<Node>(static_cast<std::size_t>(g.n));
  for (int v = 0; v < g.n; ++v) node[v] = {g.vertex_weight[v], v, 1};
  auto find = [node](int v) {
    while (node[v].parent != v)
      v = node[v].parent = node[node[v].parent].parent;
    return v;
  };
  std::optional<CheckerSum> checker;
  for (int i = g.m - 1; i >= 1; --i) {
    if (cancel && i % util::kPollStride == 0) cancel->poll();
    const int e = order[i];
    int a = find(g.edge_u[e]);
    int b = find(g.edge_v[e]);
    const graph::Weight w = node[a].weight + node[b].weight;
    if (std::abs(w - limit) <= slack) {
      if (!checker) checker.emplace(g, order, frame.arena());
      if (checker->weight_of(a, i) > limit) return i + 1;
    } else if (w > limit) {
      return i + 1;
    }
    if (node[a].size < node[b].size) std::swap(a, b);
    node[b].parent = a;
    node[a].size += node[b].size;
    node[a].weight += node[b].weight;
  }
  return 1;
}

}  // namespace

BottleneckResult bottleneck_min_scan(const graph::Tree& tree, graph::Weight K,
                                     const util::CancelToken* cancel,
                                     util::Arena* arena) {
  TGP_SPAN("core", "bottleneck_scan");
  check_preconditions(tree, K);
  obs::SolveCounters* oc = obs::active_counters();
  util::ScratchFrame frame(arena);
  graph::CsrView g = graph::csr_from_tree(tree, frame.arena());

  BottleneckResult out;
  // Empty cut first: the whole tree may already fit.
  ++out.feasibility_checks;
  if (oc) ++oc->oracle_calls;
  if (g.total_vertex_weight() <= K) return out;

  const graph::Weight limit =
      K + graph::load_epsilon(g.total_vertex_weight(), g.n);
  int* order = edges_by_weight(g, frame.arena());
  ComponentScratch scratch(g, frame.arena());
  out.cut.edges.reserve(static_cast<std::size_t>(g.m));
  for (int i = 0; i < g.m; ++i) {
    int e = order[i];
    if (cancel) cancel->poll();
    scratch.removed[e] = 1;
    out.cut.edges.push_back(e);
    ++out.feasibility_checks;
    if (oc) ++oc->oracle_calls;
    if (feasible_with_removed(g, scratch, limit)) {
      out.threshold = g.edge_weight[e];
      return out;
    }
  }
  TGP_ENSURE(false, "cutting every edge must be feasible when K >= max w");
  return out;
}

BottleneckResult bottleneck_min_bsearch(const graph::Tree& tree,
                                        graph::Weight K,
                                        const util::CancelToken* cancel,
                                        util::Arena* arena) {
  TGP_SPAN("core", "bottleneck_bsearch");
  check_preconditions(tree, K);
  obs::SolveCounters* oc = obs::active_counters();
  util::ScratchFrame frame(arena);
  graph::CsrView g = graph::csr_from_tree(tree, frame.arena());

  BottleneckResult out;
  ++out.feasibility_checks;
  if (oc) ++oc->oracle_calls;
  if (g.total_vertex_weight() <= K) return out;

  if (cancel) cancel->poll();
  const graph::Weight eps =
      graph::load_epsilon(g.total_vertex_weight(), g.n);
  const graph::Weight limit = K + eps;
  int* order = edges_by_weight(g, frame.arena());
  // Cutting a prefix of `order` only splits components, so feasibility is
  // monotone in the prefix length and one descending union pass finds the
  // shortest feasible prefix.  It is at least one edge long, as the whole
  // tree did not fit under K.  Two sums of one component in different
  // orders differ by at most about n·2^-52·total, a sixteenth of eps, so a
  // union sum more than eps/2 from the limit decides as the checker would.
  ++out.feasibility_checks;
  if (oc) ++oc->oracle_calls;
  const int len = shortest_feasible_prefix(g, order, limit, 0.5 * eps,
                                           cancel, frame.arena());
  out.threshold = g.edge_weight[order[len - 1]];
  // Reading the cut back from the removal flags lists it in index order,
  // which is exactly Cut::canonical().
  ComponentScratch scratch(g, frame.arena());
  for (int i = 0; i < len; ++i) scratch.removed[order[i]] = 1;
  out.cut.edges.reserve(static_cast<std::size_t>(len));
  for (int e = 0; e < g.m; ++e)
    if (scratch.removed[e]) out.cut.edges.push_back(e);
  TGP_ENSURE(feasible_with_removed(g, scratch, limit),
             "bsearch bottleneck cut infeasible");
  return out;
}

}  // namespace tgp::core
