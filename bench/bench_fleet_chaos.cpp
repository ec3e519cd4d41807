// Fleet kill-and-recover chaos soak: the distributed-resilience layer
// under real process death plus a seeded wire-fault storm.
//
// Topology per run: an IN-PROCESS shard router (active health checking
// and hand-off) fronting THREE tgp_served backend CHILD PROCESSES over
// loopback.  The run has three phases:
//
//   calm    — pipelined batches through a resilient client; baseline.
//   storm   — the process-global fault injector is armed with a seeded
//             probability per wire site (frame drop/dup/truncate/stall,
//             socket read/write resets — see net/socket.hpp), and one
//             shard is SIGKILLed mid-stream.  Traffic keeps flowing.
//   recover — faults disarmed, the killed shard is restarted on its old
//             port, and the run waits for the router's tgp_shard_health
//             gauges to read up for every shard before a final clean
//             sweep.
//
// Asserted invariants (hard process exit on violation):
//
//   * every request settles with a terminal status — no batch hangs, no
//     response is lost, even across SIGKILL and injected faults;
//   * zero double-delivery: each request id is answered exactly once at
//     the client (late duplicates are dropped and counted, router-side
//     and client-side);
//   * every successful result is bit-identical (cut, objective,
//     components) to a direct no-service solve of the same spec —
//     faults and failover may delay or fail a request, never corrupt it;
//   * after recovery every shard's health gauge returns to `up` and a
//     final clean sweep completes with zero failures;
//   * the storm actually fired (injected-fault counters are nonzero) —
//     a silent no-op storm would make the soak vacuous.
//
// Faults are deterministic in (seed, site, call index); --seed varies
// the storm, --runs repeats the whole soak (CI runs several seeds under
// TSan via --quick).  Requires the tgp_served binary; --served overrides
// the default ../tools/tgp_served next to this binary.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "svc/job.hpp"
#include "tools/serve_tool.hpp"
#include "util/fault.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace tgp;

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  std::exit(1);
}

/// One tgp_served backend child process.  Stdout is piped so the parent
/// can learn the (possibly ephemeral) port from the "listening on" line;
/// stderr goes to /dev/null to keep the bench output readable.
struct Child {
  pid_t pid = -1;
  std::uint16_t port = 0;
  int out_fd = -1;

  Child(const std::string& served, std::uint32_t index, std::uint32_t count,
        std::uint16_t fixed_port) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) fail("pipe() failed");
    pid = ::fork();
    if (pid < 0) fail("fork() failed");
    if (pid == 0) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
      std::string port_s = std::to_string(fixed_port);
      std::string index_s = std::to_string(index);
      std::string count_s = std::to_string(count);
      const char* argv[] = {served.c_str(),       "--port",
                            port_s.c_str(),       "--threads",
                            "1",                  "--shard-index",
                            index_s.c_str(),      "--shard-count",
                            count_s.c_str(),      "--stop-after-idle-ms",
                            "60000",              nullptr};
      ::execv(served.c_str(), const_cast<char**>(argv));
      _exit(127);  // exec failed
    }
    ::close(pipe_fds[1]);
    out_fd = pipe_fds[0];
    // Read the single "listening on HOST:PORT" line.
    std::string line;
    char ch;
    while (line.find('\n') == std::string::npos) {
      ssize_t n = ::read(out_fd, &ch, 1);
      if (n <= 0) fail("child died before announcing its port");
      line.push_back(ch);
    }
    std::size_t colon = line.rfind(':');
    if (line.find("listening on") == std::string::npos ||
        colon == std::string::npos)
      fail("unexpected child banner: " + line);
    port = static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
  }

  void kill_hard() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
    if (out_fd >= 0) ::close(out_fd);
    out_fd = -1;
  }

  void stop() {
    if (pid <= 0) return;
    ::kill(pid, SIGTERM);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
    if (out_fd >= 0) ::close(out_fd);
    out_fd = -1;
  }

  ~Child() { stop(); }
};

struct RunTotals {
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::uint64_t client_reconnects = 0;
  std::uint64_t client_hedges = 0;
  std::uint64_t client_dups = 0;
  std::uint64_t injected = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t router_dups = 0;
  std::uint64_t failovers = 0;
  std::uint64_t recoveries = 0;
  double seconds = 0;
};

constexpr std::uint32_t kShards = 3;

net::Client::Config client_config(std::uint16_t router_port,
                                  std::uint64_t seed) {
  net::Client::Config cc;
  cc.host = "127.0.0.1";
  cc.port = router_port;
  cc.connect_timeout_ms = 2000;
  cc.io_timeout_ms = 1000;
  cc.reconnect_attempts = 50;  // storms tear the client conn repeatedly
  cc.backoff.base_us = 5'000;
  cc.hedge_after_ms = 250;
  cc.seed = seed;
  return cc;
}

RunTotals run_once(const std::string& served, std::uint64_t seed,
                   bool quick) {
  const int kDistinct = quick ? 64 : 128;
  const std::size_t kBatch = quick ? 150 : 400;
  const int kCalm = quick ? 2 : 4;
  const int kStorm = quick ? 4 : 8;
  const int kRecover = quick ? 2 : 4;
  const std::uint32_t kVictim = 1;

  std::vector<svc::JobSpec> specs =
      tools::generate_workload(kDistinct, 0xC4A05 + seed, 0.0);
  std::vector<svc::JobResult> ref;
  for (const svc::JobSpec& s : specs)
    ref.push_back(svc::execute_job_captured(s));
  for (const svc::JobResult& r : ref)
    if (!r.ok) fail("reference solve failed — workload is broken");

  std::vector<std::unique_ptr<Child>> children;
  for (std::uint32_t s = 0; s < kShards; ++s)
    children.push_back(std::make_unique<Child>(served, s, kShards, 0));

  net::Router::Config rc;
  rc.health.fail_threshold = 2;
  rc.health.down_cooldown_us = 100'000;
  rc.health.recover_probes = 2;
  rc.probe_timeout_us = 400'000;
  rc.connect_timeout_ms = 500;
  net::Router router(rc);
  net::Server::Config sc;
  sc.tick_interval_ms = 10;
  net::Server router_server(sc, router);
  router.attach(router_server);
  {
    std::vector<std::pair<std::string, std::uint16_t>> addrs;
    for (auto& ch : children)
      addrs.emplace_back("127.0.0.1", ch->port);
    router.connect_backends(addrs);
  }
  std::thread router_loop([&] { router_server.run(); });

  RunTotals totals;
  net::Client client(client_config(router_server.port(), seed));

  // One pipelined batch; every request must settle with a terminal
  // status and every kOk payload must match the reference bit for bit.
  std::size_t cursor = 0;
  auto drive_batch = [&](bool require_ok) {
    std::vector<net::SubmitRequest> requests;
    std::vector<std::size_t> which;
    requests.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      net::SubmitRequest req;
      req.tenant = static_cast<std::uint32_t>(cursor % 4);
      req.spec = specs[cursor % specs.size()];
      which.push_back(cursor % specs.size());
      requests.push_back(std::move(req));
      ++cursor;
    }
    std::vector<svc::JobResult> results = client.run_batch(requests);
    if (results.size() != kBatch)
      fail("lost responses: batch came back short");
    totals.requests += kBatch;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const svc::JobResult& r = results[i];
      if (r.status == svc::JobStatus::kOk) {
        const svc::JobResult& want = ref[which[i]];
        if (r.cut.edges != want.cut.edges ||
            r.objective != want.objective ||
            r.components != want.components)
          fail("a surviving result differs from the direct solve");
        ++totals.ok;
      } else {
        if (require_ok)
          fail(std::string("clean-phase request ended ") +
               svc::job_status_name(r.status) + ": " + r.error);
        ++totals.failed;
      }
    }
  };

  util::Timer timer;

  // --- calm ------------------------------------------------------------
  for (int b = 0; b < kCalm; ++b) drive_batch(/*require_ok=*/true);

  // --- storm -----------------------------------------------------------
  {
    util::FaultScope storm(seed, 0.0);
    util::faults().set_site_probability("net.frame.drop", 0.01);
    util::faults().set_site_probability("net.frame.dup", 0.01);
    util::faults().set_site_probability("net.frame.truncate", 0.004);
    util::faults().set_site_probability("net.frame.stall", 0.01);
    util::faults().set_site_probability("net.sock.read", 0.002);
    util::faults().set_site_probability("net.sock.write", 0.002);
    for (int b = 0; b < kStorm; ++b) {
      if (b == kStorm / 2) {
        // SIGKILL one shard mid-stream: its in-flight jobs hand off to
        // the ring successor, its queued keys detour at dispatch.
        children[kVictim]->kill_hard();
      }
      drive_batch(/*require_ok=*/false);
    }
    totals.injected = util::faults().total_fired();
  }
  if (totals.injected == 0)
    fail("the storm never fired a fault — soak is vacuous");

  // --- recover ---------------------------------------------------------
  const std::uint16_t victim_port = children[kVictim]->port;
  children[kVictim] =
      std::make_unique<Child>(served, kVictim, kShards, victim_port);

  // Wait (over the wire) for every shard's health gauge to read up.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool all_up = false;
    while (!all_up) {
      if (std::chrono::steady_clock::now() > deadline)
        fail("fleet never returned to all-up after the restart");
      net::Client scrape(client_config(router_server.port(), seed + 1));
      const obs::MetricsRegistry metrics = scrape.fetch_metrics();
      all_up = true;
      for (std::uint32_t s = 0; s < kShards; ++s) {
        if (metrics.value("tgp_shard_health", {{"shard", std::to_string(s)},
                                               {"state", "up"}}) != 1.0)
          all_up = false;
      }
      if (!all_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }

  for (int b = 0; b < kRecover; ++b) drive_batch(/*require_ok=*/true);

  totals.seconds = timer.seconds();

  const net::Client::Stats& cs = client.stats();
  totals.client_reconnects = cs.reconnects;
  totals.client_hedges = cs.hedges_sent;
  totals.client_dups = cs.duplicates_dropped;

  // Router counters over the wire (its loop is still running).
  {
    net::Client scrape(client_config(router_server.port(), seed + 2));
    const obs::MetricsRegistry m = scrape.fetch_metrics();
    totals.handoffs = static_cast<std::uint64_t>(
        m.value("tgp_router_handoffs_total").value_or(0));
    totals.rerouted = static_cast<std::uint64_t>(
        m.value("tgp_router_requests_rerouted_total").value_or(0));
    totals.router_dups = static_cast<std::uint64_t>(
        m.value("tgp_router_duplicates_dropped_total").value_or(0));
    totals.failovers = static_cast<std::uint64_t>(
        m.value("tgp_router_failovers_total").value_or(0));
    totals.recoveries = static_cast<std::uint64_t>(
        m.value("tgp_router_recoveries_total").value_or(0));
  }
  if (totals.failovers < 1) fail("the SIGKILL never registered as down");
  if (totals.recoveries < 1) fail("the restart never registered as up");
  if (totals.rerouted < 1) fail("no request was ever rerouted");

  router_server.stop();
  router_loop.join();
  for (auto& ch : children) ch->stop();
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int runs = 1;
  std::uint64_t seed = 0xF1EE7;
  std::string served;
  // Anything unknown, or a flag without its value, is a usage error
  // before any child process starts.
  auto usage = [](int code) {
    std::fputs("usage: bench_fleet_chaos [--quick] [--runs N] [--seed S] "
               "[--served PATH]\n",
               code == 0 ? stdout : stderr);
    return code;
  };
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--help") == 0) {
      return usage(0);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--runs") == 0 && has_value) {
      runs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--served") == 0 && has_value) {
      served = argv[++i];
    } else {
      return usage(2);
    }
  }
  if (served.empty()) {
    // Default: ../tools/tgp_served next to this binary.
    std::string self = argv[0];
    std::size_t slash = self.rfind('/');
    served = (slash == std::string::npos ? std::string(".")
                                         : self.substr(0, slash)) +
             "/../tools/tgp_served";
  }
  if (::access(served.c_str(), X_OK) != 0)
    fail("tgp_served not executable at " + served + " (use --served)");

  net::ignore_sigpipe();
  std::printf(
      "=== fleet chaos soak (router + %u tgp_served processes, %d run(s)"
      "%s) ===\n\n",
      kShards, runs, quick ? ", quick" : "");

  util::Table t({"run", "seed", "requests", "ok", "failed", "wall (s)",
                 "injected", "rerouted", "handoffs", "dups (router)",
                 "reconnects", "hedges"});
  for (int r = 0; r < runs; ++r) {
    RunTotals totals = run_once(served, seed + static_cast<std::uint64_t>(r),
                                quick);
    t.row()
        .cell(static_cast<std::int64_t>(r))
        .cell(static_cast<std::int64_t>(seed + static_cast<std::uint64_t>(r)))
        .cell(static_cast<std::int64_t>(totals.requests))
        .cell(static_cast<std::int64_t>(totals.ok))
        .cell(static_cast<std::int64_t>(totals.failed))
        .cell(totals.seconds, 2)
        .cell(static_cast<std::int64_t>(totals.injected))
        .cell(static_cast<std::int64_t>(totals.rerouted))
        .cell(static_cast<std::int64_t>(totals.handoffs))
        .cell(static_cast<std::int64_t>(totals.router_dups))
        .cell(static_cast<std::int64_t>(totals.client_reconnects))
        .cell(static_cast<std::int64_t>(totals.client_hedges));
  }
  t.print();
  std::printf(
      "every request settled exactly once; every surviving payload was\n"
      "bit-identical to the direct solve; the fleet returned to all-up.\n");
  return 0;
}
