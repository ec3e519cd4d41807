#include "graph/chain.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace tgp::graph {

Weight Chain::total_vertex_weight() const {
  return std::accumulate(vertex_weight.begin(), vertex_weight.end(),
                         Weight{0});
}

Weight Chain::max_vertex_weight() const {
  TGP_REQUIRE(!vertex_weight.empty(), "max weight of empty chain");
  return *std::max_element(vertex_weight.begin(), vertex_weight.end());
}

Weight Chain::total_edge_weight() const {
  return std::accumulate(edge_weight.begin(), edge_weight.end(), Weight{0});
}

Weight Chain::validate() const {
  TGP_REQUIRE(!vertex_weight.empty(), "chain must have at least one vertex");
  TGP_REQUIRE(edge_weight.size() + 1 == vertex_weight.size(),
              "chain must have exactly n-1 edges");
  Weight max = 0;
  for (Weight w : vertex_weight) {
    TGP_REQUIRE(w > 0 && std::isfinite(w),
                "vertex weights must be positive and finite");
    max = std::max(max, w);
  }
  for (Weight w : edge_weight)
    TGP_REQUIRE(w > 0 && std::isfinite(w),
                "edge weights must be positive and finite");
  return max;
}

Chain Chain::slice(int first, int last) const {
  TGP_REQUIRE(0 <= first && first <= last && last < n(),
              "slice range out of bounds");
  Chain out;
  out.vertex_weight.assign(vertex_weight.begin() + first,
                           vertex_weight.begin() + last + 1);
  if (first < last)
    out.edge_weight.assign(edge_weight.begin() + first,
                           edge_weight.begin() + last);
  return out;
}

ChainPrefix::ChainPrefix(const Chain& chain) {
  acc_.resize(chain.vertex_weight.size() + 1);
  acc_[0] = 0;
  for (std::size_t i = 0; i < chain.vertex_weight.size(); ++i)
    acc_[i + 1] = acc_[i] + chain.vertex_weight[i];
}

Weight ChainPrefix::window(int i, int j) const {
  TGP_REQUIRE(0 <= i && i <= j && j < n(), "window out of bounds");
  return acc_[static_cast<std::size_t>(j) + 1] -
         acc_[static_cast<std::size_t>(i)];
}

int ChainPrefix::last_fitting(int start, Weight budget) const {
  TGP_REQUIRE(0 <= start && start < n(), "start out of bounds");
  // Largest j with acc[j+1] <= acc[start] + budget.
  Weight limit = acc_[static_cast<std::size_t>(start)] + budget;
  auto it = std::upper_bound(acc_.begin() + start + 1, acc_.end(), limit);
  return static_cast<int>(it - acc_.begin()) - 2;
}

}  // namespace tgp::graph
