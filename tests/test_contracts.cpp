// Contract coverage: every public entry point must reject invalid input
// with std::invalid_argument (never UB, never silent garbage).
// Complements the per-module tests with a single sweep that makes the
// error-handling policy auditable in one place.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "approx/supergraph.hpp"
#include "arch/mapping.hpp"
#include "ccp/bokhari_layered.hpp"
#include "ccp/ccp.hpp"
#include "ccp/host_satellite.hpp"
#include "core/bandwidth_baselines.hpp"
#include "core/bandwidth_bounded.hpp"
#include "core/bandwidth_min.hpp"
#include "core/bottleneck_min.hpp"
#include "core/chain_bottleneck.hpp"
#include "core/duals.hpp"
#include "core/knapsack.hpp"
#include "core/proc_min.hpp"
#include "core/tree_bandwidth.hpp"
#include "des/circuit_gen.hpp"
#include "des/parallel_sim.hpp"
#include "graph/generators.hpp"
#include "pde/heat.hpp"
#include "rt/realtime.hpp"
#include "sim/pipeline_sim.hpp"

namespace tgp {
namespace {

graph::Chain ok_chain() {
  graph::Chain c;
  c.vertex_weight = {2, 3, 2};
  c.edge_weight = {1, 1};
  return c;
}

graph::Chain bad_chain() {  // size mismatch
  graph::Chain c;
  c.vertex_weight = {2, 3, 2};
  c.edge_weight = {1};
  return c;
}

graph::Tree ok_tree() {
  return graph::Tree::from_edges({2, 3, 2}, {{0, 1, 1}, {1, 2, 1}});
}

TEST(Contracts, ChainAlgorithmsRejectMalformedChains) {
  graph::Chain bad = bad_chain();
  EXPECT_THROW(core::bandwidth_min_temps(bad, 5), std::invalid_argument);
  EXPECT_THROW(core::bandwidth_min_dp_naive(bad, 5),
               std::invalid_argument);
  EXPECT_THROW(core::bandwidth_min_dp_deque(bad, 5),
               std::invalid_argument);
  EXPECT_THROW(core::bandwidth_min_nicol(bad, 5), std::invalid_argument);
  EXPECT_THROW(core::bandwidth_min_bounded(bad, 5, 2),
               std::invalid_argument);
  EXPECT_THROW(core::chain_bottleneck_min(bad, 5), std::invalid_argument);
  EXPECT_THROW(core::min_bound_for_processors_chain(bad, 2),
               std::invalid_argument);
  EXPECT_THROW(ccp::ccp_dp(bad, 2), std::invalid_argument);
  EXPECT_THROW(ccp::ccp_probe(bad, 2), std::invalid_argument);
  EXPECT_THROW(ccp::ccp_nicol_probe(bad, 2), std::invalid_argument);
  EXPECT_THROW(ccp::ccp_hansen_lih(bad, 2), std::invalid_argument);
  EXPECT_THROW(ccp::ccp_bokhari_layered(bad, 2), std::invalid_argument);
  EXPECT_THROW(ccp::ccp_bokhari_comm(bad, 2), std::invalid_argument);
}

/// The chain kernels check a chain while they build its prefix view.
/// They must reject what Chain::validate() rejects, with its words and
/// in its order (sizes, vertex weights, edge weights), and then a K below
/// the largest vertex weight.
TEST(Contracts, ChainKernelsRejectEveryMalformedWeight) {
  using Kernel = std::function<void(const graph::Chain&, graph::Weight)>;
  const std::pair<const char*, Kernel> kernels[] = {
      {"chain_bottleneck_min",
       [](const graph::Chain& c, graph::Weight K) {
         (void)core::chain_bottleneck_min(c, K);
       }},
      {"bandwidth_min_temps", [](const graph::Chain& c, graph::Weight K) {
         (void)core::bandwidth_min_temps(c, K);
       }}};
  const std::string kEmpty = "chain must have at least one vertex";
  const std::string kSizes = "chain must have exactly n-1 edges";
  const std::string kVertex = "vertex weights must be positive and finite";
  const std::string kEdge = "edge weights must be positive and finite";
  const std::string kBound = "K must be at least the maximum vertex weight";
  // The message `run` throws, or "" when it throws nothing.
  auto message = [](const std::function<void()>& run) -> std::string {
    try {
      run();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };

  std::vector<std::pair<graph::Chain, std::string>> cases;
  cases.push_back({graph::Chain{}, kEmpty});
  cases.push_back({bad_chain(), kSizes});
  const double inf = std::numeric_limits<double>::infinity();
  for (double w : {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 0.0,
                   -0.0, -2.0}) {
    graph::Chain bad_vertex = ok_chain();
    bad_vertex.vertex_weight[1] = w;
    cases.push_back({bad_vertex, kVertex});
    graph::Chain bad_edge = ok_chain();
    bad_edge.edge_weight[1] = w;
    cases.push_back({bad_edge, kEdge});
    graph::Chain bad_both = ok_chain();
    bad_both.vertex_weight[2] = w;
    bad_both.edge_weight[0] = w;
    cases.push_back({bad_both, kVertex});
  }
  for (const auto& [chain, want] : cases) {
    const graph::Chain& c = chain;
    // The same words as Chain::validate().
    ASSERT_NE(message([&] { c.validate(); }).find(want), std::string::npos)
        << want;
    for (const auto& [name, run] : kernels) {
      const std::string got = message([&] { run(c, 5); });
      EXPECT_NE(got.find(want), std::string::npos)
          << name << ": want \"" << want << "\", got \"" << got << "\"";
    }
  }
  for (const auto& [name, run] : kernels) {
    const std::string got = message([&] { run(ok_chain(), 2.9); });
    EXPECT_NE(got.find(kBound), std::string::npos) << name << ": " << got;
    EXPECT_EQ(message([&] { run(ok_chain(), 3); }), "") << name;
  }
}

TEST(Contracts, KBelowMaxWeightRejectedEverywhere) {
  graph::Chain c = ok_chain();   // max vertex weight 3
  graph::Tree t = ok_tree();
  EXPECT_THROW(core::bandwidth_min_temps(c, 2.9), std::invalid_argument);
  EXPECT_THROW(core::bandwidth_min_bounded(c, 2.9, 3),
               std::invalid_argument);
  EXPECT_THROW(core::chain_bottleneck_min(c, 2.9), std::invalid_argument);
  EXPECT_THROW(core::bottleneck_min_scan(t, 2.9), std::invalid_argument);
  EXPECT_THROW(core::bottleneck_min_bsearch(t, 2.9),
               std::invalid_argument);
  EXPECT_THROW(core::proc_min(t, 2.9), std::invalid_argument);
  EXPECT_THROW(core::proc_min_oracle(t, 2.9), std::invalid_argument);
  EXPECT_THROW(core::tree_bandwidth_oracle(t, 2.9),
               std::invalid_argument);
  EXPECT_THROW(core::tree_bandwidth_greedy(t, 2.9),
               std::invalid_argument);
}

TEST(Contracts, ProcessorCountsValidated) {
  graph::Chain c = ok_chain();
  graph::Tree t = ok_tree();
  for (int m : {0, -3}) {
    EXPECT_THROW(ccp::ccp_dp(c, m), std::invalid_argument);
    EXPECT_THROW(core::min_bound_for_processors_chain(c, m),
                 std::invalid_argument);
    EXPECT_THROW(core::min_bound_for_processors_tree(t, m),
                 std::invalid_argument);
    EXPECT_THROW(core::bandwidth_min_bounded(c, 5, m),
                 std::invalid_argument);
  }
  EXPECT_THROW(ccp::ccp_dp(c, 4), std::invalid_argument);  // m > n
  EXPECT_THROW(ccp::host_satellite_partition(t, 0, -1),
               std::invalid_argument);
  EXPECT_THROW(ccp::host_satellite_partition(t, 3, 1),
               std::invalid_argument);  // root out of range
}

TEST(Contracts, CutEvaluatorsRejectBadEdges) {
  graph::Chain c = ok_chain();
  graph::Tree t = ok_tree();
  EXPECT_THROW(graph::chain_cut_weight(c, graph::Cut{{2}}),
               std::invalid_argument);
  EXPECT_THROW(graph::chain_component_weights(c, graph::Cut{{-1}}),
               std::invalid_argument);
  EXPECT_THROW(graph::tree_components(t, graph::Cut{{2}}),
               std::invalid_argument);
}

TEST(Contracts, MappingAndSimulationValidated) {
  graph::Chain c = ok_chain();
  arch::Machine m{2, 1, 1};
  arch::Mapping map = arch::map_chain_partition(c, {}, m);
  EXPECT_THROW(sim::simulate_pipeline(c, map, m, 0),
               std::invalid_argument);
  arch::Machine bad_lanes{2, 1, 1, arch::Interconnect::kMultistage, 0};
  EXPECT_THROW(sim::simulate_pipeline(c, map, bad_lanes, 1),
               std::invalid_argument);
  // Mapping from a different chain (wrong size).
  graph::Chain longer = graph::Chain{};
  longer.vertex_weight = {1, 1, 1, 1};
  longer.edge_weight = {1, 1, 1};
  EXPECT_THROW(sim::simulate_pipeline(longer, map, m, 1),
               std::invalid_argument);
  EXPECT_THROW(sim::analytic_initiation_interval(longer, map, m),
               std::invalid_argument);
  EXPECT_THROW(pde::simulate_stencil_execution(longer, map, m, 1),
               std::invalid_argument);
}

TEST(Contracts, RtPlansValidateChains) {
  rt::RtChain bad;
  bad.processing = {1, 2};
  bad.dep_cost = {1};
  bad.deadline = 1.5;  // subtask 2 exceeds it
  EXPECT_THROW(rt::plan_realtime(bad, 2), std::invalid_argument);
  EXPECT_THROW(rt::plan_realtime_bottleneck(bad, 2),
               std::invalid_argument);
  EXPECT_THROW(rt::plan_realtime_capped(bad, 2), std::invalid_argument);
  bad.deadline = 0;
  EXPECT_THROW(rt::plan_realtime_fewest_processors(bad, 2),
               std::invalid_argument);
}

TEST(Contracts, ApproxRequiresConnectedGraphs) {
  graph::TaskGraph g;
  g.add_node(1);
  g.add_node(1);  // no edges: disconnected
  EXPECT_THROW(approx::maximum_spanning_tree(g), std::invalid_argument);
  EXPECT_THROW(approx::bfs_linearize(g), std::invalid_argument);
  EXPECT_THROW(approx::mst_linearize(g), std::invalid_argument);
  EXPECT_THROW(approx::evaluate_partition(g, {0}),
               std::invalid_argument);  // wrong size
}

TEST(Contracts, DesValidatesShapesAndAssignments) {
  EXPECT_THROW(des::shift_register(0), std::invalid_argument);
  EXPECT_THROW(des::ring_counter(1), std::invalid_argument);
  EXPECT_THROW(des::ripple_carry_adder(0), std::invalid_argument);
  util::Pcg32 rng(1);
  EXPECT_THROW(des::layered_random_circuit(rng, 0, 4),
               std::invalid_argument);
  des::Circuit c = des::shift_register(4);
  EXPECT_THROW(des::simulate_activity(c, rng, 0), std::invalid_argument);
  std::vector<int> wrong(2, 0);
  EXPECT_THROW(des::simulate_parallel_des(c, wrong, rng, 10, 0.1),
               std::invalid_argument);
}

TEST(Contracts, KnapsackRejectsBadInstances) {
  EXPECT_THROW(core::solve_knapsack({{1, 2}, {1}, 5}),
               std::invalid_argument);
  EXPECT_THROW(core::knapsack_to_star({{}, {}, 5}),
               std::invalid_argument);
}

TEST(Contracts, PdeValidatesSchemeAndLayout) {
  EXPECT_THROW(pde::HeatSolver(10, 0.51, 0, 0), std::invalid_argument);
  EXPECT_THROW(pde::StripHeatSolver({}, 0.3, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(pde::StripHeatSolver({3, 0}, 0.3, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(pde::strips_to_chain({3, 2}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace tgp
