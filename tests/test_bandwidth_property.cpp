// Property-based tests: on randomized instances all bandwidth-minimization
// algorithms must (1) produce feasible cuts and (2) agree on the optimal
// cut weight — bandwidth_min_temps against three independent baselines
// plus brute force on small instances.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bandwidth_baselines.hpp"
#include "core/bandwidth_min.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace tgp::core {
namespace {

struct SweepCase {
  const char* name;
  int n;
  graph::WeightDist vertex;
  graph::WeightDist edge;
  double k_scale;  // K = max_w + k_scale * (total - max_w)
  int trials;
};

// gtest puts the printed parameter into each case's listed name. Without a
// printer it dumps the struct's raw bytes, and those hold the load address of
// `name` and uninitialised padding, so the name would change on every run.
void PrintTo(const SweepCase& sc, std::ostream* os) { *os << sc.name; }

class BandwidthSweep : public testing::TestWithParam<SweepCase> {};

double pick_k(const graph::Chain& c, double scale) {
  double maxw = c.max_vertex_weight();
  return maxw + scale * (c.total_vertex_weight() - maxw);
}

TEST_P(BandwidthSweep, AllAlgorithmsAgreeAndAreFeasible) {
  const SweepCase& sc = GetParam();
  util::Pcg32 rng(0xC0FFEE ^ static_cast<std::uint64_t>(sc.n));
  for (int t = 0; t < sc.trials; ++t) {
    graph::Chain c = graph::random_chain(rng, sc.n, sc.vertex, sc.edge);
    double K = pick_k(c, sc.k_scale);
    auto temps = bandwidth_min_temps(c, K);
    auto gallop = bandwidth_min_temps(c, K, nullptr, SearchPolicy::kGallop);
    auto naive = bandwidth_min_dp_naive(c, K);
    auto deque = bandwidth_min_dp_deque(c, K);
    auto nicol = bandwidth_min_nicol(c, K);
    // The two search policies must be bit-identical, not just equal-cost.
    EXPECT_EQ(temps.cut.edges, gallop.cut.edges);

    EXPECT_TRUE(graph::chain_cut_feasible(c, temps.cut, K));
    EXPECT_TRUE(graph::chain_cut_feasible(c, naive.cut, K));
    EXPECT_TRUE(graph::chain_cut_feasible(c, deque.cut, K));
    EXPECT_TRUE(graph::chain_cut_feasible(c, nicol.cut, K));

    double tol = 1e-9 * (1.0 + std::abs(naive.cut_weight));
    EXPECT_NEAR(temps.cut_weight, naive.cut_weight, tol)
        << sc.name << " trial " << t << " n=" << sc.n << " K=" << K;
    EXPECT_NEAR(deque.cut_weight, naive.cut_weight, tol);
    EXPECT_NEAR(nicol.cut_weight, naive.cut_weight, tol);

    // Reported weight must equal the actual weight of the reported cut.
    EXPECT_NEAR(graph::chain_cut_weight(c, temps.cut), temps.cut_weight,
                tol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, BandwidthSweep,
    testing::Values(
        SweepCase{"tiny_tight", 8, graph::WeightDist::uniform(1, 9),
                  graph::WeightDist::uniform(1, 9), 0.05, 40},
        SweepCase{"tiny_loose", 8, graph::WeightDist::uniform(1, 9),
                  graph::WeightDist::uniform(1, 9), 0.6, 40},
        SweepCase{"small_tight", 40, graph::WeightDist::uniform(1, 9),
                  graph::WeightDist::uniform(1, 9), 0.02, 25},
        SweepCase{"small_mid", 40, graph::WeightDist::uniform(1, 9),
                  graph::WeightDist::uniform(1, 9), 0.15, 25},
        SweepCase{"small_loose", 40, graph::WeightDist::uniform(1, 9),
                  graph::WeightDist::uniform(1, 9), 0.7, 25},
        SweepCase{"medium_uniform", 300, graph::WeightDist::uniform(1, 50),
                  graph::WeightDist::uniform(1, 100), 0.01, 10},
        SweepCase{"medium_exponential", 300,
                  graph::WeightDist::exponential(10),
                  graph::WeightDist::exponential(5), 0.02, 10},
        SweepCase{"medium_bimodal", 300,
                  graph::WeightDist::bimodal(0.8, 1, 5, 50, 100),
                  graph::WeightDist::uniform(1, 10), 0.02, 10},
        SweepCase{"large_uniform", 3000, graph::WeightDist::uniform(1, 20),
                  graph::WeightDist::uniform(1, 1000), 0.003, 3},
        SweepCase{"large_heavy_edges", 3000,
                  graph::WeightDist::uniform(10, 11),
                  graph::WeightDist::bimodal(0.5, 1, 2, 1000, 2000), 0.001,
                  3}),
    [](const testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

TEST(BandwidthBruteAgreement, RandomTinyChains) {
  util::Pcg32 rng(4242);
  for (int t = 0; t < 200; ++t) {
    int n = static_cast<int>(rng.uniform_int(1, 13));
    graph::Chain c =
        graph::random_chain(rng, n, graph::WeightDist::uniform(1, 9),
                            graph::WeightDist::uniform(1, 9));
    double K = c.max_vertex_weight() +
               rng.uniform_real(0.0, c.total_vertex_weight());
    auto brute = bandwidth_min_brute(c, K);
    auto temps = bandwidth_min_temps(c, K);
    ASSERT_NEAR(temps.cut_weight, brute.cut_weight, 1e-9)
        << "n=" << n << " K=" << K << " trial=" << t;
  }
}

TEST(BandwidthBruteAgreement, IntegerWeightExactness) {
  // Integer weights: results must match exactly, not just within tol.
  util::Pcg32 rng(77);
  for (int t = 0; t < 150; ++t) {
    int n = static_cast<int>(rng.uniform_int(2, 12));
    graph::Chain c;
    for (int i = 0; i < n; ++i)
      c.vertex_weight.push_back(
          static_cast<double>(rng.uniform_int(1, 8)));
    for (int i = 0; i + 1 < n; ++i)
      c.edge_weight.push_back(static_cast<double>(rng.uniform_int(1, 8)));
    double K = static_cast<double>(rng.uniform_int(8, 30));
    auto brute = bandwidth_min_brute(c, K);
    auto temps = bandwidth_min_temps(c, K);
    auto nicol = bandwidth_min_nicol(c, K);
    EXPECT_EQ(temps.cut_weight, brute.cut_weight);
    EXPECT_EQ(nicol.cut_weight, brute.cut_weight);
  }
}

TEST(BandwidthProperty, MonotoneInK) {
  // Relaxing K can only lower (or keep) the optimal cut weight.
  util::Pcg32 rng(31337);
  for (int t = 0; t < 20; ++t) {
    graph::Chain c =
        graph::random_chain(rng, 200, graph::WeightDist::uniform(1, 9),
                            graph::WeightDist::uniform(1, 9));
    double prev = std::numeric_limits<double>::infinity();
    for (double K = c.max_vertex_weight(); K < c.total_vertex_weight();
         K *= 1.5) {
      double w = bandwidth_min_temps(c, K).cut_weight;
      EXPECT_LE(w, prev + 1e-9);
      prev = w;
    }
  }
}

TEST(BandwidthProperty, CutEdgesAreDistinctAndSorted) {
  util::Pcg32 rng(55);
  for (int t = 0; t < 30; ++t) {
    graph::Chain c =
        graph::random_chain(rng, 150, graph::WeightDist::uniform(1, 9),
                            graph::WeightDist::uniform(1, 9));
    auto r = bandwidth_min_temps(c, 12);
    for (std::size_t i = 1; i < r.cut.edges.size(); ++i)
      EXPECT_LT(r.cut.edges[i - 1], r.cut.edges[i]);
  }
}

TEST(BandwidthProperty, QueueNeverExceedsQMax) {
  util::Pcg32 rng(919);
  for (int t = 0; t < 20; ++t) {
    graph::Chain c =
        graph::random_chain(rng, 500, graph::WeightDist::uniform(1, 9),
                            graph::WeightDist::uniform(1, 9));
    BandwidthInstrumentation instr;
    bandwidth_min_temps(c, 25, &instr);
    // §2.3.1: TEMP_S length never exceeds q_i at step i.
    EXPECT_LE(instr.temps.max_rows, instr.q_max);
  }
}

}  // namespace
}  // namespace tgp::core
