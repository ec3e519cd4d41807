// Open-loop soak harness for the service under overload and cache
// faults.
//
// Unlike the closed-loop chaos bench (which submits as fast as the
// service drains), this harness paces submissions from a wall clock at
// 2x the service's measured clean throughput, so the service is
// genuinely saturated: admission control must shed load, the inflight
// cap bounds the queue, and a mid-stream p=1 cache fault storm makes
// every probe a miss and every put a dropped insert.  A closed-loop storm
// tail then drives a capful of fresh jobs through the fault path, because
// a paced storm on a busy machine may see few probes.  The run then
// *asserts* (hard process exit):
//
//   * no job ends kInternalError — cache faults cost time, never a job;
//   * the storm reached the cache: at least one probe faulted, in the
//     paced stream and again after the tail;
//   * every surviving result, from the stream and from the storm tail,
//     is bit-identical to a direct no-service solve of the same spec;
//   * p99 admission latency stays bounded — submit never blocks on the
//     queue because max_inflight == queue_capacity keeps the queue from
//     ever filling.
//
// The paced stream lasts at least kMinStreamSeconds whatever the clean
// rate, cycling the generated specs, so its storm spans time in which the
// workers probe the cache.  --quick shrinks the workload for the TSan
// smoke test in CI; the assertions are identical.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "svc/service.hpp"
#include "tools/serve_tool.hpp"
#include "util/fault.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace tgp;

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  std::exit(1);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tgp;
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const int kJobs = quick ? 240 : 2000;
  const double kMinStreamSeconds = 0.25;
  const int kThreads = 4;
  const std::size_t kMaxInflight = quick ? 32 : 128;
  std::printf("=== partition service soak (open-loop, %d jobs%s) ===\n\n",
              kJobs, quick ? ", quick" : "");

  std::vector<svc::JobSpec> specs =
      tools::generate_workload(kJobs, 0x50AC, 0.3);
  // Every 16th job carries a tight deadline so the dequeue-time shedding
  // path (queue.shed) sees traffic under backlog.
  for (std::size_t i = 0; i < specs.size(); i += 16)
    specs[i].deadline_micros = 2000;

  // Reference payloads: the direct path, no service, no faults.
  std::vector<svc::JobResult> ref;
  ref.reserve(specs.size());
  for (const svc::JobSpec& s : specs)
    ref.push_back(svc::execute_job_captured(s));
  for (const svc::JobResult& r : ref)
    if (!r.ok) fail("reference solve failed — workload is broken");

  // Phase 1: closed-loop clean run to calibrate the open-loop rate, on
  // the stream the soak replays: the generated specs in turn, for at
  // least kMinStreamSeconds, through one service whose cache warms as the
  // soak's does.  One cold pass alone would price every first sight of a
  // spec as a solve, and pace the soak below what the service keeps up
  // with.
  double clean_rate;  // jobs per second
  {
    svc::ServiceConfig config;
    config.threads = kThreads;
    svc::PartitionService service(config);
    double seconds = 0;
    std::size_t jobs = 0;
    while (seconds < kMinStreamSeconds) {
      double pass_seconds = 0;
      {
        util::ScopedTimer t(pass_seconds, util::ScopedTimer::Unit::kSeconds);
        std::vector<svc::JobResult> clean = service.run_batch(specs);
        for (std::size_t i = 0; i < clean.size(); ++i)
          if (specs[i].deadline_micros == 0 && !clean[i].ok)
            fail("clean run has a failed job");
      }
      seconds += pass_seconds;
      jobs += specs.size();
    }
    clean_rate = static_cast<double>(jobs) / seconds;
  }
  std::printf("clean throughput: %.0f jobs/s -> pacing at 2x\n", clean_rate);

  // Phase 2: the soak.  Open-loop at 2x clean throughput, admission
  // control on, a 1% cache-fault drizzle, and a p=1 fault storm across
  // the middle three tenths of the stream.  The stream submits the
  // generated specs in turn, as often as it takes to last at least
  // kMinStreamSeconds at that pace.
  const double interval_us = 1e6 / (2.0 * clean_rate);
  const std::size_t stream_jobs =
      std::max(specs.size(), static_cast<std::size_t>(std::ceil(
                                 kMinStreamSeconds * 2.0 * clean_rate)));
  specs.reserve(stream_jobs);
  ref.reserve(stream_jobs);
  for (std::size_t i = specs.size(); i < stream_jobs; ++i) {
    specs.push_back(specs[i % static_cast<std::size_t>(kJobs)]);
    ref.push_back(ref[i % static_cast<std::size_t>(kJobs)]);
  }
  svc::ServiceConfig config;
  config.threads = kThreads;
  config.max_inflight = kMaxInflight;
  config.queue_capacity = kMaxInflight;  // submit can never block on push
  config.rate_limit_per_sec = 4.0 * clean_rate;  // headroom: rarely binds

  const std::size_t storm_begin = specs.size() * 4 / 10;
  const std::size_t storm_end = specs.size() * 7 / 10;

  util::FaultScope chaos(0x50A4, 0.0);
  util::faults().set_site_probability("svc.cache.get", 0.01);
  util::faults().set_site_probability("svc.cache.put", 0.01);

  svc::PartitionService service(config);
  std::vector<double> admission_us;
  admission_us.reserve(specs.size());
  double soak_seconds = 0;
  {
    util::ScopedTimer soak_t(soak_seconds, util::ScopedTimer::Unit::kSeconds);
    auto next = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (i == storm_begin) {
        util::faults().set_site_probability("svc.cache.get", 1.0);
        util::faults().set_site_probability("svc.cache.put", 1.0);
      } else if (i == storm_end) {
        util::faults().set_site_probability("svc.cache.get", 0.01);
        util::faults().set_site_probability("svc.cache.put", 0.01);
      }
      double us = 0;
      {
        util::ScopedTimer t(us, util::ScopedTimer::Unit::kMicros);
        service.submit(specs[i]);
      }
      admission_us.push_back(us);
      next += std::chrono::nanoseconds(
          static_cast<std::int64_t>(interval_us * 1e3));
      std::this_thread::sleep_until(next);  // past-due deadlines don't sleep
    }
    service.wait_idle();
  }
  if (service.metrics().cache.lookup_faults == 0)
    fail("the paced fault storm never reached the cache");

  // Phase 3: the storm tail.  The paced storm is wall-clock-defined: on a
  // loaded machine the workers may probe the cache only a few times inside
  // it.  A capful of fresh jobs submitted closed-loop with faults back at
  // p=1 always takes the fault path.
  std::vector<svc::JobSpec> storm_tail =
      tools::generate_workload(static_cast<int>(kMaxInflight), 0x57E1, 0.0);
  for (const svc::JobSpec& s : storm_tail) {
    ref.push_back(svc::execute_job_captured(s));
    if (!ref.back().ok) fail("reference solve failed — storm tail is broken");
  }
  specs.insert(specs.end(), storm_tail.begin(), storm_tail.end());
  util::faults().set_site_probability("svc.cache.get", 1.0);
  util::faults().set_site_probability("svc.cache.put", 1.0);
  for (const svc::JobSpec& s : storm_tail) service.submit(s);
  service.wait_idle();

  svc::MetricsSnapshot m = service.metrics();

  // --- Assertions --------------------------------------------------------
  // Slots are numbered in submission order, so slot i ran specs[i], for
  // the stream and the tail alike.
  std::size_t ok = 0, overloaded = 0, timeout = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const svc::JobResult& r = service.result(i);
    switch (r.status) {
      case svc::JobStatus::kOk: ++ok; break;
      case svc::JobStatus::kOverloaded: ++overloaded; break;
      case svc::JobStatus::kTimeout: ++timeout; break;
      case svc::JobStatus::kInternalError:
        fail("a job ended kInternalError — cache faults must only cost time");
      default:
        fail("unexpected job status in the soak run");
    }
    if (!r.ok) continue;
    if (r.cut.edges != ref[i].cut.edges || r.objective != ref[i].objective ||
        r.components != ref[i].components)
      fail("a surviving result differs from the clean direct solve");
  }
  if (ok == 0) fail("no job survived the soak");
  if (m.cache.lookup_faults == 0)
    fail("the fault storm never reached the cache");
  if (m.resilience.inflight_peak > kMaxInflight)
    fail("admission let the inflight count exceed the cap");
  const double p99 = percentile(admission_us, 0.99);
  if (p99 > 50'000.0)
    fail("p99 admission latency exceeded 50ms — submit blocked");

  // --- Report ------------------------------------------------------------
  util::Table t({"metric", "value"});
  t.row().cell("jobs (soak stream)").cell(
      static_cast<std::int64_t>(stream_jobs));
  t.row().cell("stream (s)").cell(soak_seconds, 3);
  t.row().cell("jobs (storm tail)").cell(
      static_cast<std::int64_t>(storm_tail.size()));
  t.row().cell("offered rate (jobs/s)").cell(2.0 * clean_rate, 0);
  t.row().cell("achieved (jobs/s)").cell(
      static_cast<double>(stream_jobs) / std::max(soak_seconds, 1e-9), 0);
  t.row().cell("ok").cell(static_cast<std::int64_t>(ok));
  t.row().cell("overloaded (admission)").cell(
      static_cast<std::int64_t>(overloaded));
  t.row().cell("overloaded share of stream (%)").cell(
      100.0 * static_cast<double>(overloaded) /
          static_cast<double>(stream_jobs),
      1);
  t.row().cell("timeout").cell(static_cast<std::int64_t>(timeout));
  t.row().cell("shed at dequeue").cell(
      static_cast<std::int64_t>(m.resilience.jobs_shed));
  t.row().cell("faulted cache probes").cell(
      static_cast<std::int64_t>(m.cache.lookup_faults));
  t.row().cell("dropped cache puts").cell(
      static_cast<std::int64_t>(m.cache.store_faults));
  t.row().cell("inflight peak").cell(
      static_cast<std::int64_t>(m.resilience.inflight_peak));
  t.row().cell("admission p50 (us)").cell(percentile(admission_us, 0.5), 1);
  t.row().cell("admission p99 (us)").cell(p99, 1);
  t.print();

  std::puts("\nOK: saturated at 2x clean throughput with a cache fault"
            "\nstorm; no internal errors, faulted probes counted, every"
            "\nsurvivor bit-identical to the direct solve.");
  return 0;
}
