#include "graph/cutset.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace tgp::graph {

Cut Cut::canonical() const {
  Cut out = *this;
  std::sort(out.edges.begin(), out.edges.end());
  out.edges.erase(std::unique(out.edges.begin(), out.edges.end()),
                  out.edges.end());
  return out;
}

namespace {
void check_chain_cut(const Chain& chain, const Cut& cut) {
  for (int e : cut.edges)
    TGP_REQUIRE(0 <= e && e < chain.edge_count(),
                "cut edge index out of range");
}
}  // namespace

std::vector<Weight> chain_component_weights(const Chain& chain,
                                            const Cut& cut) {
  check_chain_cut(chain, cut);
  Cut c = cut.canonical();
  std::vector<Weight> out;
  out.reserve(c.edges.size() + 1);
  int start = 0;
  ChainPrefix prefix(chain);
  for (int e : c.edges) {
    out.push_back(prefix.window(start, e));
    start = e + 1;
  }
  out.push_back(prefix.window(start, chain.n() - 1));
  return out;
}

bool chain_cut_feasible(const Chain& chain, const Cut& cut, Weight K) {
  Weight eps = load_epsilon(chain.total_vertex_weight(), chain.n());
  for (Weight w : chain_component_weights(chain, cut))
    if (w > K + eps) return false;
  return true;
}

Weight chain_cut_weight(const Chain& chain, const Cut& cut) {
  check_chain_cut(chain, cut);
  Cut c = cut.canonical();
  Weight total = 0;
  for (int e : c.edges) total += chain.edge_weight[static_cast<std::size_t>(e)];
  return total;
}

Weight chain_cut_max_edge(const Chain& chain, const Cut& cut) {
  check_chain_cut(chain, cut);
  Weight best = 0;
  for (int e : cut.edges)
    best = std::max(best, chain.edge_weight[static_cast<std::size_t>(e)]);
  return best;
}

namespace {

/// Labels the components of T − S by depth-first flood from the lowest
/// unlabelled vertex, calling visit(v, component) as each vertex leaves
/// the stack — the order core::feasible_with_removed floods in.
template <class Visit>
std::vector<int> flood_components(const Tree& tree, const Cut& cut,
                                  Visit&& visit) {
  std::vector<char> removed(static_cast<std::size_t>(tree.edge_count()), 0);
  for (int e : cut.edges) {
    TGP_REQUIRE(0 <= e && e < tree.edge_count(),
                "cut edge index out of range");
    removed[static_cast<std::size_t>(e)] = 1;
  }
  std::vector<int> comp(static_cast<std::size_t>(tree.n()), -1);
  int next = 0;
  std::vector<int> stack;
  for (int s = 0; s < tree.n(); ++s) {
    if (comp[static_cast<std::size_t>(s)] != -1) continue;
    comp[static_cast<std::size_t>(s)] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      visit(v, next);
      for (auto [u, e] : tree.neighbors(v)) {
        if (removed[static_cast<std::size_t>(e)]) continue;
        if (comp[static_cast<std::size_t>(u)] == -1) {
          comp[static_cast<std::size_t>(u)] = next;
          stack.push_back(u);
        }
      }
    }
    ++next;
  }
  return comp;
}

}  // namespace

std::vector<int> tree_components(const Tree& tree, const Cut& cut) {
  return flood_components(tree, cut, [](int, int) {});
}

std::vector<Weight> tree_component_weights(const Tree& tree, const Cut& cut) {
  std::vector<int> comp = tree_components(tree, cut);
  int count = comp.empty() ? 0 : *std::max_element(comp.begin(), comp.end()) + 1;
  std::vector<Weight> out(static_cast<std::size_t>(count), 0);
  for (int v = 0; v < tree.n(); ++v)
    out[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])] +=
        tree.vertex_weight(v);
  return out;
}

bool tree_cut_feasible(const Tree& tree, const Cut& cut, Weight K) {
  // Each component is weighed in flood order, as the solvers' checker
  // weighs it, not in vertex order: with decimal weights the two orders
  // can round to opposite sides of K + eps.
  const Weight limit = K + load_epsilon(tree.total_vertex_weight(), tree.n());
  std::vector<Weight> weights;
  flood_components(tree, cut, [&](int v, int c) {
    if (static_cast<std::size_t>(c) == weights.size()) weights.push_back(0);
    weights[static_cast<std::size_t>(c)] += tree.vertex_weight(v);
  });
  for (Weight w : weights)
    if (w > limit) return false;
  return true;
}

Weight tree_cut_weight(const Tree& tree, const Cut& cut) {
  Cut c = cut.canonical();
  Weight total = 0;
  for (int e : c.edges) total += tree.edge(e).weight;
  return total;
}

Weight tree_cut_max_edge(const Tree& tree, const Cut& cut) {
  Weight best = 0;
  for (int e : cut.edges) best = std::max(best, tree.edge(e).weight);
  return best;
}

Tree contract_components(const Tree& tree, const Cut& cut,
                         std::vector<int>* original_edge) {
  std::vector<int> comp = tree_components(tree, cut);
  std::vector<Weight> weights = tree_component_weights(tree, cut);
  Cut c = cut.canonical();
  std::vector<TreeEdge> edges;
  edges.reserve(c.edges.size());
  if (original_edge) original_edge->clear();
  for (int e : c.edges) {
    const TreeEdge& orig = tree.edge(e);
    int cu = comp[static_cast<std::size_t>(orig.u)];
    int cv = comp[static_cast<std::size_t>(orig.v)];
    TGP_ENSURE(cu != cv, "cut edge endpoints in same component");
    edges.push_back({cu, cv, orig.weight});
    if (original_edge) original_edge->push_back(e);
  }
  return Tree::from_edges(std::move(weights), std::move(edges));
}

}  // namespace tgp::graph
