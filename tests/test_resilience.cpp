// The overload-protection primitives (svc/resilience.hpp) and how the
// service behaves under load and faults: token-bucket admission, retry
// backoff determinism, thread-safe fault-site registration, what each
// service fault site does to a job, and the one solve path and one cache
// path every job takes — under a backlog and under cache fault storms
// alike.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "svc/resilience.hpp"
#include "svc/service.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace tgp::svc {
namespace {

using graph::Weight;

graph::Chain make_chain(int n, std::uint64_t seed) {
  util::Pcg32 rng(seed, 17);
  return graph::random_chain(rng, n, graph::WeightDist::uniform(1, 30),
                             graph::WeightDist::uniform(1, 30));
}

JobSpec chain_job(Problem p, int n, std::uint64_t seed, double frac = 0.3) {
  graph::Chain c = make_chain(n, seed);
  Weight maxw = c.max_vertex_weight();
  Weight K = maxw + frac * (c.total_vertex_weight() - maxw);
  return JobSpec::for_chain(p, K, std::move(c));
}

JobSpec tree_job(Problem p, int n, std::uint64_t seed, double frac = 0.3) {
  util::Pcg32 rng(seed, 23);
  graph::Tree t = graph::random_tree(rng, n, graph::WeightDist::uniform(1, 30),
                                     graph::WeightDist::uniform(1, 30));
  Weight maxw = t.max_vertex_weight();
  Weight K = maxw + frac * (t.total_vertex_weight() - maxw);
  return JobSpec::for_tree(p, K, std::move(t));
}

void expect_same_payload(const JobResult& got, const JobResult& want,
                         std::size_t i) {
  ASSERT_TRUE(got.ok) << "job " << i << ": " << got.error;
  EXPECT_EQ(got.cut.edges, want.cut.edges) << "job " << i;
  EXPECT_EQ(got.objective, want.objective) << "job " << i;
  EXPECT_EQ(got.components, want.components) << "job " << i;
}

// --- Fault sites ----------------------------------------------------------

// Nothing retries, so each service fault site has one fixed effect on a
// job.  A cache get or put fault is a counted miss or a counted dropped
// insert, and the job still solves to the same payload.  A queue push or
// pop fault only delays.  A solve fault fails the job kInternalError
// before the cache is touched.  A site nothing fires changes nothing.
TEST(FaultClassify, KnownSitesAndConservativeDefault) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 8; ++i)
    specs.push_back(chain_job(static_cast<Problem>(i % kProblemCount),
                              40 + i, 0xF17E + i));
  std::vector<JobResult> clean;
  for (const JobSpec& s : specs) clean.push_back(execute_job_captured(s));
  const std::uint64_t jobs = specs.size();

  for (const std::string site :
       {"svc.cache.get", "svc.cache.put", "svc.queue.push", "svc.queue.pop",
        "svc.worker.solve", "made.up.site"}) {
    util::FaultScope chaos(0x517E, 0.0);
    util::faults().set_site_probability(site, 1.0);
    ServiceConfig config;
    config.threads = 2;
    PartitionService service(config);
    std::vector<JobResult> got = service.run_batch(specs);
    const CacheStats cache = service.metrics().cache;
    if (site == "svc.worker.solve") {
      for (const JobResult& r : got)
        EXPECT_EQ(r.status, JobStatus::kInternalError);
      EXPECT_EQ(cache.hits + cache.misses, 0u);
      continue;
    }
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_same_payload(got[i], clean[i], i);
    EXPECT_EQ(cache.lookup_faults, site == "svc.cache.get" ? jobs : 0u)
        << site;
    EXPECT_EQ(cache.store_faults, site == "svc.cache.put" ? jobs : 0u)
        << site;
    EXPECT_EQ(cache.insertions, site == "svc.cache.put" ? 0u : jobs) << site;
  }
}

// --- TokenBucket ---------------------------------------------------------

TEST(TokenBucket, DisabledAlwaysAdmits) {
  TokenBucket b(0, 0);
  EXPECT_FALSE(b.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(b.try_acquire(i));
}

TEST(TokenBucket, StartsFullThenDrains) {
  TokenBucket b(1000.0, 4.0);  // 4-token burst
  ASSERT_TRUE(b.enabled());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(b.try_acquire(0)) << i;
  EXPECT_FALSE(b.try_acquire(0));  // bucket empty, no time elapsed
}

TEST(TokenBucket, RefillsAtSustainedRate) {
  TokenBucket b(1000.0, 2.0);  // one token per millisecond
  EXPECT_TRUE(b.try_acquire(0));
  EXPECT_TRUE(b.try_acquire(0));
  EXPECT_FALSE(b.try_acquire(0));
  EXPECT_FALSE(b.try_acquire(500));   // 0.5 tokens accrued
  EXPECT_TRUE(b.try_acquire(1000));   // one full token since t=0
  EXPECT_FALSE(b.try_acquire(1000));
  // Refill is capped at the burst: a long gap grants 2 tokens, not 10.
  EXPECT_NEAR(b.tokens_now(11000), 2.0, 1e-9);
}

TEST(TokenBucket, ClockRegressionIsNoElapsedTime) {
  TokenBucket b(1000.0, 1.0);
  EXPECT_TRUE(b.try_acquire(5000));
  EXPECT_FALSE(b.try_acquire(1000));  // regression: no refill, no crash
  EXPECT_TRUE(b.try_acquire(6000));   // 1ms after the last valid stamp
}

TEST(TokenBucket, ZeroBurstDefaultsToOneSecondOfTokens) {
  TokenBucket b(3.0, 0);
  EXPECT_TRUE(b.try_acquire(0));
  EXPECT_TRUE(b.try_acquire(0));
  EXPECT_TRUE(b.try_acquire(0));  // burst defaulted to max(rate, 1) = 3
  EXPECT_FALSE(b.try_acquire(0));
}

// --- RetryPolicy ---------------------------------------------------------

// The one retry loop left is net::Client's re-dial, and it is off by
// default: against a peer that never answers, a default-configured
// client gives up after the first timed-out exchange, with no re-dial.
TEST(RetryPolicy, DisabledByDefault) {
  net::UniqueFd silent = net::listen_tcp("127.0.0.1", 0, 8);  // never accepts
  net::Client::Config cc;
  EXPECT_EQ(cc.reconnect_attempts, 0);
  cc.host = "127.0.0.1";
  cc.port = net::local_port(silent.get());
  cc.io_timeout_ms = 20;
  net::Client client(cc);
  EXPECT_THROW(client.ping(), net::WireError);
  EXPECT_EQ(client.stats().reconnects, 0u);
  EXPECT_EQ(client.stats().timeouts, 1u);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyWithinJitterBounds) {
  RetryPolicy p;
  p.base_us = 100;
  p.multiplier = 2.0;
  p.jitter = 0.1;
  util::Pcg32 rng(42, 1);
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const double nominal = 100.0 * std::pow(2.0, attempt - 1);
    for (int rep = 0; rep < 50; ++rep) {
      const double d = p.backoff_us(attempt, rng);
      EXPECT_GE(d, nominal * 0.9) << "attempt " << attempt;
      EXPECT_LE(d, nominal * 1.1) << "attempt " << attempt;
    }
  }
}

TEST(RetryPolicy, BackoffIsDeterministicPerRngStream) {
  RetryPolicy p;
  auto draw = [&](std::uint64_t seed) {
    util::Pcg32 rng(seed, 9);
    std::vector<double> out;
    for (int i = 1; i <= 8; ++i) out.push_back(p.backoff_us(1 + (i % 2), rng));
    return out;
  };
  EXPECT_EQ(draw(7), draw(7));
  EXPECT_NE(draw(7), draw(8));
}

TEST(RetryPolicy, ZeroJitterIsExact) {
  RetryPolicy p;
  p.base_us = 50;
  p.multiplier = 3.0;
  p.jitter = 0;
  util::Pcg32 rng(1, 1);
  EXPECT_DOUBLE_EQ(p.backoff_us(1, rng), 50.0);
  EXPECT_DOUBLE_EQ(p.backoff_us(2, rng), 150.0);
  EXPECT_DOUBLE_EQ(p.backoff_us(3, rng), 450.0);
}

// --- FaultInjector thread safety -----------------------------------------

// First hits of fresh sites race from many threads: registration must not
// lose calls, and the decision stream must stay a pure function of
// (seed, site, call index) — the fired totals of a concurrent run match a
// single-threaded run of the same length.  Run under TSan in CI.
TEST(FaultInjector, ConcurrentFirstHitRegistrationLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kCalls = 500;
  const std::vector<std::string> sites = {"race.a", "race.b", "race.c"};

  auto fired_counts = [&](util::FaultInjector& inj) {
    std::vector<std::uint64_t> out;
    for (const std::string& s : sites) out.push_back(inj.fired(s));
    return out;
  };

  util::FaultInjector serial;
  serial.arm(99, 0.3);
  for (const std::string& s : sites)
    for (int i = 0; i < kThreads * kCalls; ++i) serial.fire(s);
  serial.disarm();

  util::FaultInjector racy;
  racy.arm(99, 0.3);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&racy, &sites] {
      for (int i = 0; i < kCalls; ++i)
        for (const std::string& s : sites) racy.fire(s);
    });
  for (std::thread& th : threads) th.join();
  racy.disarm();

  for (const std::string& s : sites)
    EXPECT_EQ(racy.calls(s), static_cast<std::uint64_t>(kThreads * kCalls))
        << s;
  // Same seed, same per-site call count => same number of fires, no
  // matter how the threads interleaved.
  EXPECT_EQ(fired_counts(racy), fired_counts(serial));
}

TEST(FaultInjector, SetSiteProbabilityWhileFiringIsSafe) {
  util::FaultInjector inj;
  inj.arm(5, 0.0);
  std::thread firer([&] {
    for (int i = 0; i < 20000; ++i) inj.fire("flip");
  });
  for (int i = 0; i < 200; ++i)
    inj.set_site_probability("flip", i % 2 ? 1.0 : 0.0);
  firer.join();
  inj.disarm();
  EXPECT_EQ(inj.calls("flip"), 20000u);
}

// --- Service integration: admission --------------------------------------

TEST(ServiceResilience, InflightCapIsNeverExceeded) {
  ServiceConfig config;
  config.threads = 4;
  config.max_inflight = 3;
  config.queue_capacity = 64;
  PartitionService service(config);

  std::vector<std::size_t> slots;
  for (int i = 0; i < 200; ++i)
    slots.push_back(service.submit(
        chain_job(Problem::kBottleneck, 60, 0xCAFE + i)));
  service.wait_idle();

  std::size_t ok = 0, overloaded = 0;
  for (std::size_t s : slots) {
    const JobResult& r = service.result(s);
    if (r.ok) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, JobStatus::kOverloaded);
      EXPECT_FALSE(r.error.empty());
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, slots.size());
  EXPECT_GE(ok, 3u);  // at least one capful must get through

  MetricsSnapshot m = service.metrics();
  EXPECT_TRUE(m.resilience.any());
  EXPECT_LE(m.resilience.inflight_peak, config.max_inflight);
  EXPECT_EQ(m.resilience.rejected_inflight,
            static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(m.resilience.inflight_now, 0u);
}

TEST(ServiceResilience, RateLimitShedsExcessSubmits) {
  ServiceConfig config;
  config.threads = 2;
  config.rate_limit_per_sec = 1.0;  // one job/s sustained...
  config.rate_burst = 2.0;          // ...after a 2-job burst
  PartitionService service(config);

  std::size_t overloaded = 0;
  for (int i = 0; i < 30; ++i) {
    std::size_t s =
        service.submit(chain_job(Problem::kBandwidth, 40, 0xBEEF + i));
    service.wait_idle();
    if (service.result(s).status == JobStatus::kOverloaded) ++overloaded;
  }
  // The loop runs far faster than 1 job/s: the burst admits the first
  // two, nearly everything after is rejected.
  EXPECT_GE(overloaded, 20u);
  MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.resilience.rejected_rate,
            static_cast<std::uint64_t>(overloaded));
}

// --- Service integration: one cache path ---------------------------------

// A faulted probe is a miss, so a job whose answer sits in a warm cache
// solves again — and the re-solve is bit-identical to the cached answer
// at any thread count.
TEST(ServiceResilience, RetriedSolvesAreBitIdenticalAcrossThreadCounts) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 24; ++i)
    specs.push_back(chain_job(static_cast<Problem>(i % kProblemCount),
                              40 + i, 0x5EED + i));
  std::vector<JobResult> clean;
  for (const JobSpec& s : specs) clean.push_back(execute_job_captured(s));

  for (int threads : {1, 8}) {
    ServiceConfig config;
    config.threads = threads;
    PartitionService service(config);
    std::vector<JobResult> warm = service.run_batch(specs);
    std::vector<JobResult> got;
    {
      util::FaultScope chaos(0xD1CE, 0.0);
      util::faults().set_site_probability("svc.cache.get", 1.0);
      got = service.run_batch(specs);
    }
    const CacheStats cache = service.metrics().cache;
    EXPECT_EQ(cache.lookup_faults, specs.size()) << threads;
    EXPECT_EQ(cache.hits, 0u) << threads;
    ASSERT_EQ(got.size(), clean.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_payload(warm[i], clean[i], i);
      expect_same_payload(got[i], clean[i], i);
      EXPECT_FALSE(got[i].cache_hit) << "threads " << threads << " job " << i;
    }
  }
}

// A p = 1 fault storm on both cache sites fails no job: every probe is a
// miss and every put is dropped.  Once it passes, the cache recovers on
// its own — the first clean pass refills it and the second is served
// from it.
TEST(ServiceResilience, BreakerTripsUnderFaultStormAndRecovers) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 40; ++i)
    specs.push_back(chain_job(Problem::kBottleneck, 50 + i, 0xB0B + i));
  const std::uint64_t jobs = specs.size();

  ServiceConfig config;
  config.threads = 2;
  PartitionService service(config);
  std::vector<JobResult> storm;
  {
    util::FaultScope chaos(0xABCD, 0.0);
    util::faults().set_site_probability("svc.cache.get", 1.0);
    util::faults().set_site_probability("svc.cache.put", 1.0);
    storm = service.run_batch(specs);
  }
  const CacheStats mid = service.metrics().cache;
  EXPECT_EQ(mid.lookup_faults, jobs);
  EXPECT_EQ(mid.store_faults, jobs);
  EXPECT_EQ(mid.hits, 0u);
  EXPECT_EQ(mid.entries, 0u);

  std::vector<JobResult> refill = service.run_batch(specs);
  std::vector<JobResult> served = service.run_batch(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(storm[i].ok) << i;
    expect_same_payload(refill[i], storm[i], i);
    expect_same_payload(served[i], storm[i], i);
    EXPECT_FALSE(refill[i].cache_hit) << i;
    EXPECT_TRUE(served[i].cache_hit) << i;
  }
  const CacheStats end = service.metrics().cache;
  EXPECT_EQ(end.hits, jobs);
  EXPECT_EQ(end.entries, jobs);
  EXPECT_EQ(end.lookup_faults, jobs);
}

// --- Service integration: one solve path ---------------------------------

// A backlog does not change how a job is solved: with one worker and the
// whole batch queued behind it, every chain bandwidth job gets the primary
// solver's exact cut, and its answer is stored — so each repeat queued
// later in the same backlog is served from the cache.
TEST(ServiceResilience, DegradedSolvesKeepTheExactObjective) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < 32; ++i)
    specs.push_back(chain_job(Problem::kBandwidth, 80 + i, 0xDE6 + i));
  std::vector<JobResult> clean;
  for (const JobSpec& s : specs) clean.push_back(execute_job_captured(s));
  const std::size_t distinct = specs.size();
  for (std::size_t i = 0; i < distinct; ++i) specs.push_back(specs[i]);

  ServiceConfig config;
  config.threads = 1;
  PartitionService service(config);
  std::vector<JobResult> got = service.run_batch(specs);
  ASSERT_EQ(got.size(), 2 * distinct);
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_payload(got[i], clean[i % distinct], i);
    EXPECT_EQ(got[i].cache_hit, i >= distinct) << i;
  }
  const CacheStats cache = service.metrics().cache;
  EXPECT_EQ(cache.insertions, distinct);
  EXPECT_EQ(cache.hits, distinct);
}

// The same backlog leaves every other problem alone too, on chains and on
// trees: each result is bit-identical to the direct solve.
TEST(ServiceResilience, NonBandwidthJobsNeverDegrade) {
  const Problem problems[] = {Problem::kBottleneck, Problem::kProcMin,
                              Problem::kPipeline};
  std::vector<JobSpec> specs;
  for (int i = 0; i < 18; ++i) {
    const Problem p = problems[i % 3];
    specs.push_back(i % 2 == 0 ? chain_job(p, 60 + i, 0xFACE + i)
                               : tree_job(p, 60 + i, 0xFACE + i));
  }
  ServiceConfig config;
  config.threads = 1;
  PartitionService service(config);
  std::vector<JobResult> got = service.run_batch(specs);
  ASSERT_EQ(got.size(), specs.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_same_payload(got[i], execute_job_captured(specs[i]), i);
}

}  // namespace
}  // namespace tgp::svc
