// Fault tolerance of the partition service (svc/service.hpp): the error
// taxonomy, deadline and cancellation paths, worker fault isolation under
// deterministic fault injection (util/fault.hpp), and the differential
// invariant that surviving results are bit-identical to a no-fault run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "obs/trace.hpp"
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

std::vector<JobSpec> mixed_jobs(int count, std::uint64_t seed) {
  std::vector<JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto p = static_cast<Problem>(i % kProblemCount);
    specs.push_back(chain_job(p, 30 + i, seed + static_cast<std::uint64_t>(i)));
  }
  return specs;
}

void expect_same_payload(const JobResult& a, const JobResult& b,
                         std::size_t slot) {
  EXPECT_EQ(a.status, b.status) << "job " << slot;
  EXPECT_EQ(a.cut.edges, b.cut.edges) << "job " << slot;
  EXPECT_EQ(a.objective, b.objective) << "job " << slot;
  EXPECT_EQ(a.components, b.components) << "job " << slot;
}

// --- FaultInjector unit behavior -----------------------------------------

TEST(FaultInjector, SameSeedSameDecisions) {
  util::FaultInjector inj;
  auto run = [&](std::uint64_t seed) {
    inj.arm(seed, 0.5);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(inj.fire("site.a"));
    for (int i = 0; i < 200; ++i) fired.push_back(inj.fire("site.b"));
    inj.disarm();
    return fired;
  };
  std::vector<bool> first = run(7);
  EXPECT_EQ(first, run(7));
  EXPECT_NE(first, run(8));  // astronomically unlikely to collide
  // Different sites see different (but individually deterministic) streams.
  std::vector<bool> a(first.begin(), first.begin() + 200);
  std::vector<bool> b(first.begin() + 200, first.end());
  EXPECT_NE(a, b);
}

TEST(FaultInjector, ProbabilityEndpointsAndCounters) {
  util::FaultInjector inj;
  inj.arm(1, 0.0);
  inj.set_site_probability("always", 1.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.fire("always"));
    EXPECT_FALSE(inj.fire("never"));
  }
  EXPECT_EQ(inj.calls("always"), 50u);
  EXPECT_EQ(inj.fired("always"), 50u);
  EXPECT_EQ(inj.calls("never"), 50u);
  EXPECT_EQ(inj.fired("never"), 0u);
  EXPECT_EQ(inj.total_fired(), 50u);
  auto report = inj.report();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].site, "always");  // sorted by name
  EXPECT_EQ(report[1].site, "never");
  inj.disarm();
  // Disarmed: no fires, no accounting.
  EXPECT_FALSE(inj.fire("always"));
  EXPECT_EQ(inj.calls("always"), 50u);
}

// --- Error taxonomy ------------------------------------------------------

TEST(ServiceFaults, InvalidSpecsSettleWhileBatchCompletes) {
  std::vector<JobSpec> specs = mixed_jobs(12, 0xFA11);
  specs[3].K = 0;  // below the max vertex weight
  specs[7].K = std::numeric_limits<double>::infinity();
  specs[9].deadline_micros = -1;

  ServiceConfig config;
  config.threads = 2;
  PartitionService service(config);
  std::vector<JobResult> got = service.run_batch(specs);
  ASSERT_EQ(got.size(), specs.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i == 3 || i == 7 || i == 9) {
      EXPECT_FALSE(got[i].ok) << i;
      EXPECT_EQ(got[i].status, JobStatus::kInvalidSpec) << i;
      EXPECT_FALSE(got[i].error.empty()) << i;
    } else {
      EXPECT_TRUE(got[i].ok) << i;
      expect_same_payload(got[i], execute_job_captured(specs[i]), i);
    }
  }
  MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.status_count(JobStatus::kInvalidSpec), 3u);
  EXPECT_EQ(m.status_count(JobStatus::kOk), specs.size() - 3);
  EXPECT_EQ(m.failed, 3u);
}

TEST(ServiceFaults, ValidateSpecCatchesMalformedGraphs) {
  graph::Chain bad;
  bad.vertex_weight = {1, 2, 3};
  bad.edge_weight = {1};  // wrong edge count
  JobSpec s = JobSpec::for_chain(Problem::kBottleneck, 10, bad);
  SpecCheck check = validate_spec(s);
  EXPECT_FALSE(check.ok());
  EXPECT_EQ(check.status, JobStatus::kInvalidSpec);
  JobResult r = execute_job_captured(s);
  EXPECT_EQ(r.status, JobStatus::kInvalidSpec);
  EXPECT_EQ(r.error, check.error);
}

// --- Deadlines & cancellation --------------------------------------------

TEST(ServiceFaults, ExpiredDeadlineYieldsTimeout) {
  // A 1 µs deadline on a non-trivial job: either the worker sees it
  // expired at dequeue or a solver poll trips — both must report kTimeout.
  JobSpec slow = chain_job(Problem::kBandwidth, 4000, 0x510);
  slow.deadline_micros = 1;
  ServiceConfig config;
  config.threads = 1;
  PartitionService service(config);
  std::size_t slot = service.submit(slow);
  service.wait_idle();
  const JobResult& r = service.result(slot);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, JobStatus::kTimeout);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(service.metrics().status_count(JobStatus::kTimeout), 1u);
}

TEST(ServiceFaults, GenerousDeadlineDoesNotPerturbResults) {
  std::vector<JobSpec> specs = mixed_jobs(10, 0xDEAD);
  std::vector<JobSpec> with_deadline = specs;
  for (JobSpec& s : with_deadline) s.deadline_micros = 60e6;  // one minute
  ServiceConfig config;
  config.threads = 2;
  std::vector<JobResult> a = PartitionService(config).run_batch(specs);
  std::vector<JobResult> b =
      PartitionService(config).run_batch(with_deadline);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].status, JobStatus::kOk) << i;
    expect_same_payload(a[i], b[i], i);
  }
}

TEST(ServiceFaults, CancelQueuedJobsSettlesCancelled) {
  ServiceConfig config;
  config.threads = 1;  // one worker: the fat head job blocks the queue
  PartitionService service(config);
  // Big enough that the worker is still busy on it long after the cancel
  // calls below have landed (milliseconds vs microseconds).
  std::size_t head =
      service.submit(chain_job(Problem::kBandwidth, 100000, 1));
  std::vector<std::size_t> queued;
  for (int i = 0; i < 5; ++i)
    queued.push_back(service.submit(chain_job(Problem::kProcMin, 40, 100 + i)));
  for (std::size_t slot : queued) service.cancel(slot);
  service.wait_idle();
  for (std::size_t slot : queued) {
    const JobResult& r = service.result(slot);
    // The cancel landed before wait_idle returned; a job the worker had
    // not started must come back kCancelled.  (With one worker busy on
    // the fat head job, none of these can have started.)
    EXPECT_FALSE(r.ok) << slot;
    EXPECT_EQ(r.status, JobStatus::kCancelled) << slot;
  }
  EXPECT_TRUE(service.result(head).ok);
  EXPECT_EQ(service.metrics().status_count(JobStatus::kCancelled), 5u);
}

TEST(ServiceFaults, CancelAfterCompletionReturnsFalseAndKeepsResult) {
  ServiceConfig config;
  config.threads = 1;
  PartitionService service(config);
  std::size_t slot = service.submit(chain_job(Problem::kBottleneck, 30, 2));
  service.wait_idle();
  EXPECT_FALSE(service.cancel(slot));  // completed work wins the race
  EXPECT_TRUE(service.completed(slot));
  EXPECT_TRUE(service.result(slot).ok);
  EXPECT_EQ(service.result(slot).status, JobStatus::kOk);
}

TEST(ServiceFaults, ShutdownWithinSettlesEverySlot) {
  ServiceConfig config;
  config.threads = 1;
  PartitionService service(config);
  std::vector<std::size_t> slots;
  for (int i = 0; i < 4; ++i)
    slots.push_back(
        service.submit(chain_job(Problem::kBandwidth, 100000, 900 + i)));
  // A drain window far smaller than the work: remaining jobs are cancelled.
  service.shutdown_within(100);
  for (std::size_t slot : slots) {
    EXPECT_TRUE(service.completed(slot)) << slot;
    const JobResult& r = service.result(slot);
    if (!r.ok) {
      EXPECT_EQ(r.status, JobStatus::kCancelled) << slot;
    }
  }
  EXPECT_THROW(service.submit(chain_job(Problem::kProcMin, 10, 3)),
               ServiceStopped);
}

// --- Fault injection through the service ---------------------------------

TEST(ServiceFaults, InjectedSolverFaultsAreIsolatedAndDeterministic) {
  std::vector<JobSpec> specs = mixed_jobs(40, 0xC4405);
  ServiceConfig config;
  config.threads = 2;
  std::vector<JobResult> clean = PartitionService(config).run_batch(specs);

  util::FaultScope chaos(/*seed=*/99, /*default_probability=*/0.0);
  util::faults().set_site_probability("svc.worker.solve", 0.3);
  std::vector<JobResult> got = PartitionService(config).run_batch(specs);
  std::uint64_t fired = util::faults().fired("svc.worker.solve");
  ASSERT_EQ(util::faults().calls("svc.worker.solve"), specs.size());
  ASSERT_GT(fired, 0u);                  // deterministic for this seed
  ASSERT_LT(fired, specs.size());        // ... and some jobs survive

  std::size_t failures = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].ok) {
      // The differential invariant: a surviving job is bit-identical to
      // the no-fault run — faults may kill jobs, never corrupt them.
      expect_same_payload(got[i], clean[i], i);
    } else {
      ++failures;
      EXPECT_EQ(got[i].status, JobStatus::kInternalError) << i;
      EXPECT_EQ(got[i].error, "injected fault at svc.worker.solve") << i;
    }
  }
  // Every fire() is one job's solve attempt, so the counts must agree.
  EXPECT_EQ(failures, fired);
}

TEST(ServiceFaults, CacheFaultsDegradeWithoutChangingResults) {
  // Duplicate-heavy workload so the cache actually matters, then make the
  // cache unreliable: lookups miss and stores vanish, at p = 0.5 and in a
  // p = 1 storm.  A faulted probe is a miss and a faulted put a dropped
  // insert — nothing retries — so every job must still solve to the clean
  // run's payload, at every thread count.
  std::vector<JobSpec> specs = mixed_jobs(15, 0xCAC4E);
  std::vector<JobSpec> dup(specs);
  specs.insert(specs.end(), dup.begin(), dup.end());

  ServiceConfig config;
  config.threads = 2;
  std::vector<JobResult> clean = PartitionService(config).run_batch(specs);

  for (int threads : {1, 2, 8}) {
    for (double p : {0.5, 1.0}) {
      util::FaultScope chaos(/*seed=*/5, /*default_probability=*/0.0);
      util::faults().set_site_probability("svc.cache.get", p);
      util::faults().set_site_probability("svc.cache.put", p);
      config.threads = threads;
      PartitionService service(config);
      std::vector<JobResult> got = service.run_batch(specs);
      const CacheStats cache = service.metrics().cache;
      ASSERT_EQ(got.size(), clean.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].status, JobStatus::kOk)
            << "threads " << threads << " p " << p << " job " << i;
        expect_same_payload(got[i], clean[i], i);
      }
      EXPECT_GT(cache.lookup_faults, 0u) << threads << " " << p;
      EXPECT_GT(cache.store_faults, 0u) << threads << " " << p;
    }
  }
}

TEST(ServiceFaults, QueuePerturbationPreservesBatchOrderAndPayloads) {
  std::vector<JobSpec> specs = mixed_jobs(20, 0x0DD5);
  ServiceConfig config;
  config.threads = 3;
  config.queue_capacity = 4;  // force backpressure under perturbation
  std::vector<JobResult> clean = PartitionService(config).run_batch(specs);

  util::FaultScope chaos(/*seed=*/11, /*default_probability=*/0.0);
  util::faults().set_site_probability("svc.queue.push", 0.5);
  util::faults().set_site_probability("svc.queue.pop", 0.5);
  std::vector<JobResult> got = PartitionService(config).run_batch(specs);
  ASSERT_EQ(got.size(), clean.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_same_payload(got[i], clean[i], i);
}

// --- Watchdog ------------------------------------------------------------

TEST(ServiceFaults, WatchdogPromotesDeadlinesOfQueuedJobs) {
  ServiceConfig config;
  config.threads = 1;
  config.watchdog_interval_micros = 500;
  PartitionService service(config);
  // Occupy the only worker, then queue jobs whose deadlines expire while
  // they wait — the watchdog (or the dequeue check) must time them out.
  std::size_t head =
      service.submit(chain_job(Problem::kBandwidth, 100000, 7));
  std::vector<std::size_t> doomed;
  for (int i = 0; i < 3; ++i) {
    JobSpec s = chain_job(Problem::kProcMin, 40, 700 + i);
    s.deadline_micros = 1;
    doomed.push_back(service.submit(s));
  }
  service.wait_idle();
  EXPECT_TRUE(service.result(head).ok);
  for (std::size_t slot : doomed)
    EXPECT_EQ(service.result(slot).status, JobStatus::kTimeout) << slot;
  MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.status_count(JobStatus::kTimeout), 3u);
}

// --- Span balance under faults --------------------------------------------
//
// RAII spans must close on every exit path — fast-fail, exception unwind,
// cancellation — or traces from a faulty run would dangle open spans.
// Complete-event tracing only records *closed* spans, so the balance
// check is by census: the span counts must match the per-path job counts
// the results report.

struct SpanCensus {
  std::size_t queue_wait = 0;
  std::size_t queue_shed = 0;
  std::size_t job = 0;
  std::size_t solve = 0;
  std::size_t canonicalize = 0;
};

SpanCensus census(const obs::trace::TraceSnapshot& snap) {
  SpanCensus c;
  for (const obs::TraceEvent& ev : snap.events) {
    if (std::string(ev.cat) != "svc") continue;
    std::string name = ev.name;
    if (name == "queue.wait") ++c.queue_wait;
    else if (name == "queue.shed") ++c.queue_shed;
    else if (name == "job") ++c.job;
    else if (name == "solve") ++c.solve;
    else if (name == "canonicalize") ++c.canonicalize;
  }
  return c;
}

class TracedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::trace::set_enabled(false);
    obs::trace::clear();
    obs::trace::set_enabled(true);
  }
  void TearDown() override {
    obs::trace::set_enabled(false);
    obs::trace::clear();
  }
};

TEST_F(TracedServiceTest, SpansBalancedWhenQueuedJobsAreCancelled) {
  ServiceConfig config;
  config.threads = 1;
  std::size_t head, n_cancelled = 5;
  {
    PartitionService service(config);
    head = service.submit(chain_job(Problem::kBandwidth, 100000, 1));
    std::vector<std::size_t> queued;
    for (std::size_t i = 0; i < n_cancelled; ++i)
      queued.push_back(
          service.submit(chain_job(Problem::kProcMin, 40, 100 + i)));
    for (std::size_t slot : queued) service.cancel(slot);
    service.wait_idle();
    ASSERT_TRUE(service.result(head).ok);
    for (std::size_t slot : queued)
      ASSERT_EQ(service.result(slot).status, JobStatus::kCancelled);
  }  // destructor joins the workers: all rings final
  obs::trace::set_enabled(false);
  SpanCensus c = census(obs::trace::snapshot());
  // Only the head job logged a queue wait — the cancelled jobs were shed
  // at dequeue and get the distinct queue.shed span instead, keeping
  // shed waits out of the queue-wait percentiles.
  EXPECT_EQ(c.queue_wait, 1u);
  EXPECT_EQ(c.queue_shed, n_cancelled);
  EXPECT_EQ(c.job, 1u);
  EXPECT_EQ(c.solve, 1u);
  EXPECT_EQ(c.canonicalize, 1u);
}

TEST_F(TracedServiceTest, SpansBalancedUnderInjectedSolverFaults) {
  std::vector<JobSpec> specs = mixed_jobs(40, 0x7ACE);
  ServiceConfig config;
  config.threads = 2;
  config.cache_bytes = 0;  // no cache: one solve span per surviving job
  std::uint64_t fired = 0;
  std::size_t failures = 0;
  {
    util::FaultScope chaos(/*seed=*/99, /*default_probability=*/0.0);
    util::faults().set_site_probability("svc.worker.solve", 0.3);
    PartitionService service(config);
    std::vector<JobResult> got = service.run_batch(specs);
    fired = util::faults().fired("svc.worker.solve");
    for (const JobResult& r : got)
      if (!r.ok) ++failures;
    ASSERT_GT(fired, 0u);
    ASSERT_EQ(failures, fired);
  }
  obs::trace::set_enabled(false);
  SpanCensus c = census(obs::trace::snapshot());
  // The job span closes by RAII even when the solve throws: every job
  // has one, but faulted jobs never opened canonicalize/solve.
  EXPECT_EQ(c.queue_wait, specs.size());
  EXPECT_EQ(c.job, specs.size());
  EXPECT_EQ(c.solve, specs.size() - failures);
  EXPECT_EQ(c.canonicalize, specs.size() - failures);
}

TEST_F(TracedServiceTest, SpansCloseWhenDeadlineUnwindsMidSolve) {
  ServiceConfig config;
  config.threads = 1;
  JobSpec slow = chain_job(Problem::kBandwidth, 200000, 0x51de);
  // Wide enough to survive the dequeue check on any reasonable machine,
  // narrow enough that the solver's cancel poll trips mid-solve.
  slow.deadline_micros = 2000;
  JobStatus status;
  std::string error;
  {
    PartitionService service(config);
    std::size_t slot = service.submit(slow);
    service.wait_idle();
    status = service.result(slot).status;
    error = service.result(slot).error;
  }
  obs::trace::set_enabled(false);
  ASSERT_EQ(status, JobStatus::kTimeout);
  SpanCensus c = census(obs::trace::snapshot());
  if (error == "deadline expired before the job started") {
    // Fast-failed at dequeue (very slow machine): shed, no solver spans.
    EXPECT_EQ(c.queue_wait, 0u);
    EXPECT_EQ(c.queue_shed, 1u);
    EXPECT_EQ(c.job, 0u);
    EXPECT_EQ(c.solve, 0u);
  } else {
    // The common path: CancelledError unwound out of the solver, and the
    // solve + job spans still closed on the way out.
    EXPECT_EQ(c.queue_wait, 1u);
    EXPECT_EQ(c.queue_shed, 0u);
    EXPECT_EQ(c.job, 1u);
    EXPECT_EQ(c.solve, 1u);
  }
}

TEST_F(TracedServiceTest, CanonicalizeSpanTellsAComputedKeyFromAKeptOne) {
  // Two jobs on one tree object, one worker: the first computes the key
  // the tree then keeps, the second reads it.
  util::Pcg32 rng(0xC0FFEE, 3);
  const auto w = graph::WeightDist::uniform(1, 20);
  const auto tree =
      std::make_shared<const graph::Tree>(graph::random_tree(rng, 200, w, w));
  const Weight K = tree->max_vertex_weight() +
                   0.2 * (tree->total_vertex_weight() -
                          tree->max_vertex_weight());
  ServiceConfig config;
  config.threads = 1;
  {
    PartitionService service(config);
    for (const JobResult& r :
         service.run_batch({JobSpec::for_tree(Problem::kBottleneck, K, tree),
                            JobSpec::for_tree(Problem::kProcMin, K, tree)}))
      ASSERT_TRUE(r.ok) << r.error;
  }
  obs::trace::set_enabled(false);
  std::vector<std::int64_t> computed;
  for (const obs::TraceEvent& ev : obs::trace::snapshot().events) {
    if (std::string(ev.cat) != "svc" || std::string(ev.name) != "canonicalize")
      continue;
    for (const obs::TraceArg& a : ev.args)
      if (a.name != nullptr && std::string(a.name) == "computed")
        computed.push_back(a.value);
  }
  EXPECT_EQ(computed, (std::vector<std::int64_t>{1, 0}));
}

TEST_F(TracedServiceTest, CancelledGiantSolveUnwindsWithinDeadline) {
  // A giant chain solve hits its deadline.  The sweeps poll the token
  // every util::kPollStride items, so the worker unwinds with kTimeout
  // long before the full solve could have finished — and every span
  // still closes.
  ServiceConfig config;
  config.threads = 1;
  JobSpec giant = chain_job(Problem::kBandwidth, 4'000'000, 0x61A47);
  giant.deadline_micros = 5000;  // a full solve takes orders more
  JobStatus status;
  std::string error;
  std::chrono::steady_clock::duration elapsed;
  {
    PartitionService service(config);
    auto t0 = std::chrono::steady_clock::now();
    std::size_t slot = service.submit(giant);
    service.wait_idle();
    elapsed = std::chrono::steady_clock::now() - t0;
    status = service.result(slot).status;
    error = service.result(slot).error;
  }
  obs::trace::set_enabled(false);
  ASSERT_EQ(status, JobStatus::kTimeout) << error;
  // Generous bound (sanitizers, ctest -j saturating every core) that is
  // still far below the multi-second full solve: the unwind must be
  // prompt.  The job polls before the canonical copy, so under TSan in a
  // fully loaded suite it took 0.45-0.8 s.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            4000);
  SpanCensus c = census(obs::trace::snapshot());
  if (error == "deadline expired before the job started") {
    EXPECT_EQ(c.queue_shed, 1u);
    EXPECT_EQ(c.job, 0u);
    EXPECT_EQ(c.solve, 0u);
  } else {
    // The common path: CancelledError unwound out of the solve with the
    // job + solve spans closed by RAII.
    EXPECT_EQ(c.queue_wait, 1u);
    EXPECT_EQ(c.queue_shed, 0u);
    EXPECT_EQ(c.job, 1u);
    EXPECT_EQ(c.solve, 1u);
  }
}

}  // namespace
}  // namespace tgp::svc
