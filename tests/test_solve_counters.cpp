// SolveCounters through the job/service layers: exact values on known
// inputs, the cache-hit determinism contract, and the thread-count
// differential the ISSUE's acceptance gate names.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/bandwidth_min.hpp"
#include "core/prime_subpaths.hpp"
#include "graph/generators.hpp"
#include "obs/counters.hpp"
#include "svc/job.hpp"
#include "svc/service.hpp"
#include "tools/serve_tool.hpp"
#include "util/rng.hpp"

namespace tgp {
namespace {

graph::Chain test_chain(int n, unsigned seed, double slack, double* K) {
  util::Pcg32 rng(seed);
  graph::Chain c = graph::random_chain(rng, n,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  *K = c.max_vertex_weight() +
       slack * (c.total_vertex_weight() - c.max_vertex_weight());
  return c;
}

graph::Tree test_tree(int n, unsigned seed, double slack, double* K) {
  util::Pcg32 rng(seed);
  graph::Tree t = graph::random_tree(rng, n,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  *K = t.max_vertex_weight() +
       slack * (t.total_vertex_weight() - t.max_vertex_weight());
  return t;
}

TEST(SolveCountersJob, BandwidthChainMatchesInstrumentation) {
  double K = 0;
  graph::Chain c = test_chain(400, 11, 0.05, &K);

  // Ground truth from the solver's own instrumentation struct.
  core::BandwidthInstrumentation instr;
  (void)core::bandwidth_min_temps(c, K, &instr);

  svc::JobResult r =
      svc::execute_job(svc::JobSpec::for_chain(svc::Problem::kBandwidth, K, c));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.counters.prime_subpaths, static_cast<std::uint64_t>(instr.p));
  EXPECT_EQ(r.counters.nonredundant_edges, static_cast<std::uint64_t>(instr.r));
  // One W_i oracle evaluation per non-redundant edge.
  EXPECT_EQ(r.counters.oracle_calls, static_cast<std::uint64_t>(instr.r));
  // Paper bound: r ≤ min(2p − 1, n − 1).
  EXPECT_LE(instr.r, std::min(2 * instr.p - 1, c.n() - 1));
  // The default policy is binary search: probes land there, not gallop.
  EXPECT_GT(r.counters.bsearch_probes, 0u);
  EXPECT_EQ(r.counters.gallop_probes, 0u);
  EXPECT_GT(r.counters.temps_peak_rows, 0u);
}

TEST(SolveCountersJob, ChainBottleneckCountsEveryPrime) {
  // Tight, mid and loose bounds: one window minimum per prime subpath.
  for (double slack : {0.0002, 0.05, 0.5}) {
    double K = 0;
    graph::Chain c = test_chain(3000, 17, slack, &K);
    const auto primes =
        static_cast<std::uint64_t>(core::prime_subpaths(c, K).size());
    ASSERT_GT(primes, 0u) << "slack " << slack;
    svc::JobResult r = svc::execute_job(
        svc::JobSpec::for_chain(svc::Problem::kBottleneck, K, c));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.counters.prime_subpaths, primes) << "slack " << slack;
    EXPECT_EQ(r.counters.oracle_calls, primes) << "slack " << slack;
  }
}

TEST(SolveCountersJob, ProcMinCountsOneOracleCallPerVertex) {
  double K = 0;
  graph::Tree t = test_tree(200, 5, 0.1, &K);
  svc::JobResult r =
      svc::execute_job(svc::JobSpec::for_tree(svc::Problem::kProcMin, K, t));
  ASSERT_TRUE(r.ok);
  // Algorithm 3.2 makes exactly one lump-fits decision per vertex.
  EXPECT_EQ(r.counters.oracle_calls, static_cast<std::uint64_t>(t.n()));
  EXPECT_EQ(r.counters.bsearch_probes, 0u);
}

TEST(SolveCountersJob, BottleneckTreeIsOneUnionPass) {
  double K = 0;
  graph::Tree t = test_tree(500, 9, 0.05, &K);
  svc::JobResult r =
      svc::execute_job(svc::JobSpec::for_tree(svc::Problem::kBottleneck, K, t));
  ASSERT_TRUE(r.ok);
  ASSERT_FALSE(r.cut.empty());
  // Two oracle calls whatever the size: the whole-fits check, then one
  // descending union-find pass.  Nothing bisects.
  EXPECT_EQ(r.counters.bsearch_probes, 0u);
  EXPECT_EQ(r.counters.oracle_calls, 2u);
}

TEST(SolveCountersJob, PipelineSumsBothStages) {
  double K = 0;
  graph::Tree t = test_tree(300, 13, 0.08, &K);
  svc::JobResult bn =
      svc::execute_job(svc::JobSpec::for_tree(svc::Problem::kBottleneck, K, t));
  svc::JobResult pipe =
      svc::execute_job(svc::JobSpec::for_tree(svc::Problem::kPipeline, K, t));
  ASSERT_TRUE(bn.ok);
  ASSERT_TRUE(pipe.ok);
  // The pipeline runs §2.1 then §2.2 under one counter scope, so it must
  // record strictly more oracle work than the bottleneck stage alone.
  EXPECT_GT(pipe.counters.oracle_calls, bn.counters.oracle_calls);
}

TEST(SolveCountersJob, FailedJobReportsZeroCounters) {
  graph::Tree t =
      graph::Tree::from_parents({10, 10, 10}, {-1, 0, 1}, {0, 1, 1});
  // K below the max vertex weight: rejected by validate_spec.
  svc::JobResult r = svc::execute_job_captured(
      svc::JobSpec::for_tree(svc::Problem::kProcMin, 1, t));
  ASSERT_FALSE(r.ok);
  EXPECT_FALSE(r.counters.any());
}

TEST(SolveCountersService, CacheHitReturnsOriginalSolveCounters) {
  double K = 0;
  auto chain = std::make_shared<const graph::Chain>(
      test_chain(600, 21, 0.05, &K));

  svc::ServiceConfig cfg;
  cfg.threads = 1;
  svc::PartitionService service(cfg);
  std::size_t a = service.submit(
      svc::JobSpec::for_chain(svc::Problem::kBandwidth, K, chain));
  service.wait_idle();
  std::size_t b = service.submit(
      svc::JobSpec::for_chain(svc::Problem::kBandwidth, K, chain));
  service.wait_idle();

  const svc::JobResult& miss = service.result(a);
  const svc::JobResult& hit = service.result(b);
  ASSERT_TRUE(miss.ok);
  ASSERT_TRUE(hit.ok);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  // The memo stores the counters with the outcome, so a hit reports the
  // original solve's counters verbatim — including arena_bytes_peak.
  EXPECT_EQ(hit.counters, miss.counters);
  EXPECT_TRUE(miss.counters.any());
}

TEST(SolveCountersService, DeterministicAcrossThreadCounts) {
  // The acceptance differential: per-job counters must be identical
  // between a 1-thread and an 8-thread service on the same workload
  // (modulo arena_bytes_peak — see obs/counters.hpp).
  std::vector<svc::JobSpec> specs = tools::generate_workload(120, 77, 0.5);

  auto run = [&](int threads) {
    svc::ServiceConfig cfg;
    cfg.threads = threads;
    svc::PartitionService service(cfg);
    return service.run_batch(specs);
  };
  std::vector<svc::JobResult> r1 = run(1);
  std::vector<svc::JobResult> r8 = run(8);
  ASSERT_EQ(r1.size(), r8.size());
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_EQ(r1[i].ok, r8[i].ok) << "slot " << i;
    EXPECT_TRUE(r1[i].counters.algo_equal(r8[i].counters)) << "slot " << i;
    if (r1[i].counters.any()) ++nonzero;
  }
  EXPECT_GT(nonzero, 0u);
}

TEST(SolveCountersService, MetricsAggregateMatchesPerJobSum) {
  std::vector<svc::JobSpec> specs = tools::generate_workload(80, 31, 0.0);
  svc::ServiceConfig cfg;
  cfg.threads = 4;
  svc::PartitionService service(cfg);
  std::vector<svc::JobResult> results = service.run_batch(specs);

  obs::SolveCounters expect;
  for (const svc::JobResult& r : results)
    if (r.ok) expect.merge(r.counters);
  obs::SolveCounters got = service.metrics().counters_total();
  EXPECT_TRUE(expect.algo_equal(got));
}

}  // namespace
}  // namespace tgp
