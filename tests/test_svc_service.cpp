// Partition service runtime (svc/service.hpp): differential equivalence
// against the direct solver path, thread-count determinism, error capture
// and metrics accounting.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <latch>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace tgp::svc {
namespace {

using graph::Weight;

/// K feasible for every problem: max vertex weight plus a fraction of the
/// remaining total, so proc_min's K >= maxw precondition holds.
Weight feasible_k(Weight total, Weight maxw, double frac) {
  return maxw + frac * (total - maxw);
}

std::vector<JobSpec> random_jobs(int count, std::uint64_t seed) {
  util::Pcg32 rng(seed, 31);
  std::vector<JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto problem = static_cast<Problem>(rng.uniform_int(0, kProblemCount - 1));
    double frac = rng.uniform_real(0.1, 0.6);
    int n = 2 + static_cast<int>(rng.uniform_int(0, 40));
    if (rng.coin(0.5)) {
      graph::Chain c = graph::random_chain(rng, n,
                                           graph::WeightDist::uniform(1, 20),
                                           graph::WeightDist::uniform(1, 20));
      Weight total = 0, maxw = 0;
      for (Weight w : c.vertex_weight) {
        total += w;
        maxw = std::max(maxw, w);
      }
      specs.push_back(
          JobSpec::for_chain(problem, feasible_k(total, maxw, frac), c));
    } else {
      graph::Tree t = rng.coin(0.3)
                          ? graph::random_binary_tree(
                                rng, n, graph::WeightDist::uniform(1, 20),
                                graph::WeightDist::uniform(1, 20))
                          : graph::random_tree(
                                rng, n, graph::WeightDist::uniform(1, 20),
                                graph::WeightDist::uniform(1, 20));
      specs.push_back(JobSpec::for_tree(
          problem, feasible_k(t.total_vertex_weight(),
                              t.max_vertex_weight(), frac),
          t));
    }
  }
  return specs;
}

void expect_same_payload(const JobResult& a, const JobResult& b,
                         std::size_t slot) {
  EXPECT_EQ(a.ok, b.ok) << "job " << slot;
  EXPECT_EQ(a.status, b.status) << "job " << slot;
  EXPECT_EQ(a.error, b.error) << "job " << slot;
  EXPECT_EQ(a.cut.edges, b.cut.edges) << "job " << slot;
  EXPECT_EQ(a.objective, b.objective) << "job " << slot;
  EXPECT_EQ(a.components, b.components) << "job " << slot;
}

TEST(PartitionService, MatchesDirectSolverOver200RandomGraphs) {
  std::vector<JobSpec> specs = random_jobs(200, 0xD1FF);
  ServiceConfig config;
  config.threads = 3;
  PartitionService service(config);
  std::vector<JobResult> got = service.run_batch(specs);
  ASSERT_EQ(got.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    expect_same_payload(got[i], execute_job_captured(specs[i]), i);
}

TEST(PartitionService, ThreadCountDoesNotAffectResults) {
  std::vector<JobSpec> specs = random_jobs(120, 0xBEEF);
  ServiceConfig one;
  one.threads = 1;
  ServiceConfig many;
  many.threads = 3;
  std::vector<JobResult> a = PartitionService(one).run_batch(specs);
  std::vector<JobResult> b = PartitionService(many).run_batch(specs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_same_payload(a[i], b[i], i);
}

TEST(PartitionService, CacheHitIsBitIdenticalToRecomputation) {
  // Same graph presented twice (second time reversed): the second job is
  // served from cache yet must agree with its own direct computation.
  util::Pcg32 rng(42, 3);
  graph::Chain c = graph::random_chain(rng, 50,
                                       graph::WeightDist::uniform(1, 30),
                                       graph::WeightDist::uniform(1, 30));
  Weight total = 0, maxw = 0;
  for (Weight w : c.vertex_weight) {
    total += w;
    maxw = std::max(maxw, w);
  }
  Weight K = feasible_k(total, maxw, 0.3);
  JobSpec first = JobSpec::for_chain(Problem::kBandwidth, K, c);
  JobSpec second =
      JobSpec::for_chain(Problem::kBandwidth, K, graph::reversed_chain(c));

  ServiceConfig config;
  config.threads = 1;  // serialize so the second job sees the warm cache
  PartitionService service(config);
  std::vector<JobResult> got = service.run_batch({first, second});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(got[0].cache_hit);
  EXPECT_TRUE(got[1].cache_hit);
  expect_same_payload(got[1], execute_job_captured(second), 1);
  EXPECT_EQ(got[0].objective, got[1].objective);
  MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.cache.hits, 1u);
  EXPECT_EQ(m.cache.misses, 1u);
}

// apply_outcome maps a tree cut back by marking its edges and sweeping
// them in index order.  On relabelled trees it must agree with mapping
// each edge and sorting, for cuts of 0, 1, m/2 and m edges listed in any
// order, and a cut that lists an edge twice must throw.
TEST(ApplyOutcome, TreeSweepMatchesSortedMapAndRejectsRepeats) {
  util::Pcg32 rng(0x5EE9u, 7);
  const auto w = graph::WeightDist::uniform(1, 20);
  for (int n : {1, 2, 37, 1000}) {
    const graph::Tree t =
        graph::relabel_tree(rng, graph::random_tree(rng, n, w, w));
    const graph::TreeLabelling l = graph::canonical_labelling(t);
    const int m = t.edge_count();
    std::vector<int> all(static_cast<std::size_t>(m));
    std::iota(all.begin(), all.end(), 0);
    std::shuffle(all.begin(), all.end(), rng);
    for (int size : {0, 1, m / 2, m}) {
      if (size > m) continue;
      CanonicalOutcome o;
      o.cut.edges.assign(all.begin(), all.begin() + size);
      o.objective = 3.5;
      o.components = size + 1;
      std::vector<int> want;
      for (int e : o.cut.edges) want.push_back(l.map_edge_back(e));
      std::sort(want.begin(), want.end());
      JobResult r;
      r.cut.edges = {7, 7, 7};  // stale contents are replaced
      apply_outcome(r, o, l);
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.status, JobStatus::kOk);
      EXPECT_EQ(r.cut.edges, want) << "n " << n << " cut of " << size;
      EXPECT_EQ(r.objective, 3.5);
      EXPECT_EQ(r.components, size + 1);
    }
    if (m < 2) continue;
    CanonicalOutcome twice;
    twice.cut.edges = {all[0], all[1], all[0]};
    JobResult r;
    EXPECT_THROW(apply_outcome(r, twice, l), std::logic_error) << "n " << n;
  }
}

// A tree job keys the cache from the key its Tree keeps.  Every way a
// job meets the cache — a hit, a miss at a new K, a hit checked under
// verify_results and a recovered hit that must be verified — must give
// what execute_job gives, both for the first job on a tree object (it
// computes the key, and builds the canonical tree from its own
// labelling) and for the next job on it (it reads the kept key, and runs
// canonical_tree where it needs the tree).
TEST(PartitionService, TreeJobsMatchTheDirectPathBeforeAndAfterTheKeyIsKept) {
  util::Pcg32 rng(0x7EE4u, 29);
  const auto w = graph::WeightDist::uniform(1, 20);
  const graph::Tree base =
      graph::relabel_tree(rng, graph::random_tree(rng, 300, w, w));
  auto k_at = [&](double frac) {
    return feasible_k(base.total_vertex_weight(), base.max_vertex_weight(),
                      frac);
  };
  const Weight K1 = k_at(0.1), K2 = k_at(0.2), K3 = k_at(0.3);
  const Problem p = Problem::kBottleneck;
  auto job = [&](Weight K, std::shared_ptr<const graph::Tree> t) {
    return JobSpec::for_tree(p, K, std::move(t));
  };
  // A copy of `base` starts without a key, and `base` is never keyed.
  auto fresh = [&] { return std::make_shared<const graph::Tree>(base); };
  // Runs `spec` alone, checks it against the direct path, and checks that
  // its tree kept the key the job read or computed.
  auto check = [&](PartitionService& service, const JobSpec& spec,
                   bool want_hit, const char* what) {
    const JobResult got = service.run_batch({spec})[0];
    EXPECT_EQ(got.cache_hit, want_hit) << what;
    expect_same_payload(got, execute_job_captured(spec), 0);
    std::optional<graph::TreeOrder> computed;
    (void)spec.tree->canonical_key(nullptr, &computed);
    EXPECT_FALSE(computed.has_value()) << what;
  };

  {
    ServiceConfig config;
    config.threads = 1;
    PartitionService service(config);
    service.run_batch({job(K1, fresh())});
    const auto t = fresh();
    check(service, job(K1, t), true, "hit, key computed");
    check(service, job(K1, t), true, "hit, key kept");
    const auto u = fresh();
    check(service, job(K2, u), false, "miss, key computed");
    check(service, job(K3, u), false, "miss, key kept");
  }
  {
    ServiceConfig config;
    config.threads = 1;
    config.verify_results = true;
    PartitionService service(config);
    service.run_batch({job(K1, fresh())});
    const auto t = fresh();
    check(service, job(K1, t), true, "verified hit, key computed");
    check(service, job(K1, t), true, "verified hit, key kept");
    EXPECT_EQ(service.metrics().durability.verify_failed, 0u);
  }
  {
    const std::string dir = testing::TempDir() + "/tree_key_recovered";
    std::filesystem::remove_all(dir);
    ServiceConfig config;
    config.threads = 1;
    config.cache_dir = dir;
    {
      PartitionService cold(config);
      cold.run_batch({job(K1, fresh()), job(K2, fresh())});
    }
    PartitionService service(config);
    ASSERT_EQ(service.metrics().durability.recovered_entries, 2u);
    const auto t = fresh();
    check(service, job(K1, t), true, "recovered hit, key computed");
    check(service, job(K2, t), true, "recovered hit, key kept");
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.cache.warm_hits, 2u);
    EXPECT_EQ(m.durability.verified_ok, 2u);
    EXPECT_EQ(m.durability.verify_failed, 0u);
  }
}

TEST(PartitionService, DisabledCacheNeverHits) {
  std::vector<JobSpec> specs = random_jobs(30, 0xF00D);
  std::vector<JobSpec> dup(specs);  // 100% duplicates
  specs.insert(specs.end(), dup.begin(), dup.end());
  ServiceConfig config;
  config.threads = 2;
  config.cache_bytes = 0;
  PartitionService service(config);
  for (const JobResult& r : service.run_batch(specs))
    EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(service.metrics().cache.hits, 0u);
}

TEST(PartitionService, SolverErrorsAreCapturedNotThrown) {
  // proc_min requires K >= max vertex weight; K=0 violates it.
  graph::Chain c;
  c.vertex_weight = {5, 5, 5};
  c.edge_weight = {1, 1};
  JobSpec bad = JobSpec::for_chain(Problem::kProcMin, 0, c);
  JobSpec good = JobSpec::for_chain(Problem::kProcMin, 15, c);

  ServiceConfig config;
  config.threads = 2;
  PartitionService service(config);
  std::vector<JobResult> got = service.run_batch({bad, good});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(got[0].ok);
  EXPECT_EQ(got[0].status, JobStatus::kInvalidSpec);
  EXPECT_FALSE(got[0].error.empty());
  EXPECT_TRUE(got[1].ok);
  EXPECT_EQ(got[1].status, JobStatus::kOk);
  JobResult direct = execute_job_captured(bad);
  ASSERT_FALSE(direct.ok);
  EXPECT_EQ(got[0].error, direct.error);

  MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.status_count(JobStatus::kInvalidSpec), 1u);
  EXPECT_EQ(m.status_count(JobStatus::kOk), 1u);
}

TEST(PartitionService, MetricsCountersAddUp) {
  std::vector<JobSpec> specs = random_jobs(60, 0xC0DE);
  std::vector<JobSpec> dup(specs.begin(), specs.begin() + 20);
  ServiceConfig config;
  config.threads = 2;
  PartitionService service(config);
  std::vector<JobResult> got = service.run_batch(specs);
  // Second batch of literal duplicates against the now-warm cache: these
  // must all hit.  (Running them inside the first batch would be racy —
  // a duplicate can be dequeued while its original is still mid-solve.)
  std::vector<JobResult> dup_got = service.run_batch(dup);
  got.insert(got.end(), dup_got.begin(), dup_got.end());

  std::size_t total = specs.size() + dup.size();
  std::size_t hits = 0;
  for (const JobResult& r : got) hits += r.cache_hit ? 1 : 0;
  for (const JobResult& r : dup_got) EXPECT_TRUE(r.cache_hit);
  MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, total);
  EXPECT_EQ(m.completed, total);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.cache.hits, hits);
  EXPECT_GE(hits, 20u);  // the literal duplicates must all hit
  EXPECT_EQ(m.cache.hits + m.cache.misses, total);
  EXPECT_GE(m.queue_high_watermark, 1u);
  EXPECT_EQ(m.overall_latency().count, total);
}

TEST(PartitionService, SubmitAfterShutdownThrows) {
  PartitionService service({.threads = 1});
  graph::Chain c;
  c.vertex_weight = {1, 2};
  c.edge_weight = {1};
  service.submit(JobSpec::for_chain(Problem::kBottleneck, 3, c));
  service.shutdown();
  EXPECT_THROW(
      service.submit(JobSpec::for_chain(Problem::kBottleneck, 3, c)),
      ServiceStopped);
}

TEST(PartitionService, CompletionCallbackSurvivesSlotTableGrowth) {
  // A job's completion callback runs outside the slot lock while
  // submit() keeps growing the slot table.  The first job's callback
  // blocks until a few hundred more submits (all queued behind the one
  // worker) have reallocated the table's block map several times; under
  // -fsanitize=thread any unlocked read of the table by settle() races
  // with those submits.
  ServiceConfig config;
  config.threads = 1;
  PartitionService service(config);
  graph::Chain c;
  c.vertex_weight = {1, 2};
  c.edge_weight = {1};
  const JobSpec spec = JobSpec::for_chain(Problem::kBottleneck, 3, c);
  std::latch release(1);
  JobResult delivered;
  const std::size_t first =
      service.submit(spec, [&](std::size_t, const JobResult& r) {
        release.wait();
        delivered = r;  // still the settled result after the growth
      });
  // completed() flips under the slot lock before the callback runs, so
  // the submits below start once settle() has left that lock.
  while (!service.completed(first)) std::this_thread::yield();
  constexpr int kMore = 400;  // well inside the default queue capacity
  std::vector<std::size_t> more;
  for (int i = 0; i < kMore; ++i) more.push_back(service.submit(spec));
  release.count_down();
  service.wait_idle();
  const JobResult expected = execute_job_captured(spec);
  expect_same_payload(delivered, expected, first);
  for (std::size_t slot : more)
    expect_same_payload(service.result(slot), expected, slot);
}

TEST(PartitionService, ResultThrowsBeforeCompletion) {
  PartitionService service({.threads = 1});
  EXPECT_THROW(service.result(0), std::invalid_argument);
}

TEST(PartitionService, RunBatchPreservesSubmissionOrder) {
  // Jobs with distinguishable objectives: chain i has total weight ~i.
  std::vector<JobSpec> specs;
  for (int i = 0; i < 24; ++i) {
    graph::Chain c;
    c.vertex_weight = {static_cast<Weight>(i + 1),
                       static_cast<Weight>(i + 1)};
    c.edge_weight = {1};
    specs.push_back(
        JobSpec::for_chain(Problem::kProcMin, 2 * (i + 1), c));
  }
  ServiceConfig config;
  config.threads = 3;
  config.queue_capacity = 4;  // force backpressure on the submitter
  std::vector<JobResult> got = PartitionService(config).run_batch(specs);
  ASSERT_EQ(got.size(), specs.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].ok) << i;
    expect_same_payload(got[i], execute_job_captured(specs[i]), i);
  }
}

}  // namespace
}  // namespace tgp::svc
