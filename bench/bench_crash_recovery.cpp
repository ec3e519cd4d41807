// Crash-recovery chaos soak for the durable memo cache: one tgp_served
// child process with a persistent --cache-dir is SIGKILLed mid-stream,
// over and over, under seeded torn-write fault injection at the
// durability sites (dur.journal.append, dur.snapshot.write), and every
// restart must come back serving only correct answers.
//
// Cycle structure (default 10 SIGKILL/restart cycles per seed):
//
//   boot    — spawn tgp_served on the same --cache-dir, scrape
//             tgp_recovered_entries_total / tgp_durability_clean_start.
//             Every boot after the first must recover entries; no boot
//             after a SIGKILL may claim a clean start.
//   warm    — one pass over the core working set through a checksummed
//             client.  The first-pass hit rate is the measured warm-start
//             quality; a second pass re-establishes a ~100% pre-kill
//             baseline (and re-journals anything the last tear lost).
//   kill    — a second client streams fresh jobs (journal appends in
//             flight) until the parent SIGKILLs the child under it.
//             Completed batches are still asserted bit-identical.
//
// Cycle 0 runs clean (cold fill).  Later cycles arm the injector:
// dur.journal.append tears a low fraction of appends (the record is
// reported written but lands corrupt — exactly a crash mid-append), and
// every fourth cycle is a snapshot storm (--cache-compact-mb 0 compacts
// continuously so dur.snapshot.write tears whole-set snapshots).
//
// Asserted invariants (hard process exit on violation):
//
//   * zero corrupt entries served: every kOk payload, warm or fresh, is
//     bit-identical to a direct no-service solve of the same spec.  The
//     child also runs --verify, so recovered hits are independently
//     re-checked server-side before they reach the wire;
//   * every boot after the first recovers journal/snapshot entries, and
//     never reads the clean-shutdown marker after a SIGKILL;
//   * post-restart warm hit rate >= 80% of the pre-kill hit rate after
//     every steady-state cycle.  Boots after a snapshot storm, or after
//     a recovery-heavy session that re-journaled the working set under
//     torn-append fire, are exempt from the floor (their journal tail is
//     legitimately at risk) but never from the integrity invariants;
//   * wire checksums are on end to end and never fail on clean links;
//   * a final SIGTERM flush writes the clean marker: the next boot reads
//     tgp_durability_clean_start == 1 and serves the set warm.
//
// Faults are deterministic in (seed, site, call index); --seed varies
// the storm, --cycles overrides the kill count, --runs repeats the soak.
// Requires the tgp_served binary; --served overrides the default
// ../tools/tgp_served next to this binary.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/socket.hpp"
#include "svc/job.hpp"
#include "tools/serve_tool.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace tgp;

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  std::exit(1);
}

/// One tgp_served child on an ephemeral port, durable cache in `dir`.
/// Stdout is piped for the "listening on" banner; stderr goes to
/// /dev/null to keep the bench output readable.
struct Child {
  pid_t pid = -1;
  std::uint16_t port = 0;
  int out_fd = -1;

  Child(const std::string& served, const std::string& dir,
        std::uint64_t fault_seed, const std::string& fault_sites,
        int compact_mb) {
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
      std::string fault_seed_s = std::to_string(fault_seed);
      std::string compact_s = std::to_string(compact_mb);
      std::vector<const char*> argv = {
          served.c_str(), "--port", "0", "--threads", "2",
          "--cache-dir", dir.c_str(), "--cache-compact-mb",
          compact_s.c_str(), "--verify", "--stop-after-idle-ms", "60000"};
      if (!fault_sites.empty()) {
        argv.push_back("--fault-seed");
        argv.push_back(fault_seed_s.c_str());
        argv.push_back("--fault-sites");
        argv.push_back(fault_sites.c_str());
      }
      argv.push_back(nullptr);
      ::execv(served.c_str(), const_cast<char**>(argv.data()));
      _exit(127);  // exec failed
    }
    ::close(pipe_fds[1]);
    out_fd = pipe_fds[0];
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

  void stop() {  // SIGTERM: the graceful-flush path
    if (pid <= 0) return;
    ::kill(pid, SIGTERM);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
    if (out_fd >= 0) ::close(out_fd);
    out_fd = -1;
  }

  ~Child() { stop(); }
};

net::Client::Config client_config(std::uint16_t port) {
  net::Client::Config cc;
  cc.host = "127.0.0.1";
  cc.port = port;
  cc.connect_timeout_ms = 2000;
  cc.io_timeout_ms = 10'000;  // sanitizer builds solve slowly
  cc.checksum = true;         // end-to-end integrity on every frame
  return cc;
}

struct CycleRow {
  int cycle = 0;
  const char* mode = "clean";
  std::uint64_t recovered = 0;
  std::uint64_t dropped = 0;
  double warm_rate = 0;
  double prekill_rate = 0;
  std::size_t kill_ok = 0;
};

struct RunTotals {
  std::size_t requests = 0;
  std::uint64_t recovered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t quarantined = 0;
  double seconds = 0;
};

obs::MetricsRegistry scrape(std::uint16_t port) {
  net::Client c(client_config(port));
  return c.fetch_metrics();
}

/// Recovery drops summed over the four reason series.
std::uint64_t recovery_dropped(const obs::MetricsRegistry& m) {
  std::uint64_t total = 0;
  for (const char* reason : {"crc", "truncated", "stale_epoch", "malformed"})
    total += static_cast<std::uint64_t>(
        m.value("tgp_recovery_dropped_total", {{"reason", reason}})
            .value_or(0));
  return total;
}

RunTotals run_once(const std::string& served, std::uint64_t seed, int cycles,
                   bool quick, util::Table& table) {
  const int kDistinct = quick ? 32 : 64;
  const int kKillSpecs = quick ? 6 : 10;

  // The durable working set, plus direct no-service reference solves.
  std::vector<svc::JobSpec> core =
      tools::generate_workload(kDistinct, 0xD0C0 + seed, 0.0);
  std::vector<svc::JobResult> ref;
  for (const svc::JobSpec& s : core) ref.push_back(svc::execute_job_captured(s));
  for (const svc::JobResult& r : ref)
    if (!r.ok) fail("reference solve failed — workload is broken");

  char dir_template[] = "/tmp/tgp_crash_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) fail("mkdtemp() failed");
  const std::string dir = dir_template;

  RunTotals totals;
  util::Timer timer;
  double prekill_rate = 0;      // pass-2 hit rate of the previous cycle
  bool floor_applies = false;   // previous cycle was journal-mode

  // One pass over the core set: every result must be kOk and
  // bit-identical to the direct solve.  Returns the cache-hit rate.
  auto drive_core = [&](net::Client& client, const char* phase) {
    std::vector<net::SubmitRequest> requests;
    for (const svc::JobSpec& s : core) {
      net::SubmitRequest req;
      req.spec = s;
      requests.push_back(std::move(req));
    }
    std::vector<svc::JobResult> results = client.run_batch(requests);
    if (results.size() != core.size())
      fail(std::string(phase) + ": batch came back short");
    totals.requests += results.size();
    std::size_t hits = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const svc::JobResult& r = results[i];
      if (r.status != svc::JobStatus::kOk)
        fail(std::string(phase) + ": job " + std::to_string(i) + " ended " +
             svc::job_status_name(r.status) + ": " + r.error);
      if (r.cut.edges != ref[i].cut.edges || r.objective != ref[i].objective ||
          r.components != ref[i].components)
        fail(std::string(phase) +
             ": a served payload differs from the direct solve — a corrupt "
             "entry escaped");
      if (r.cache_hit) ++hits;
    }
    if (client.stats().checksum_failures != 0)
      fail("frame checksum failed on a clean loopback link");
    return static_cast<double>(hits) / static_cast<double>(results.size());
  };

  for (int c = 0; c < cycles; ++c) {
    // Cycle 0 fills the cache clean; every fourth later cycle compacts
    // continuously so torn-snapshot faults actually fire; the rest tear
    // journal appends only.
    const bool storm = c > 0 && c % 4 == 3;
    const char* mode = c == 0 ? "clean" : (storm ? "snapshot" : "journal");
    const std::string sites =
        c == 0 ? ""
               : "dur.journal.append=0.04,dur.snapshot.write=0.25";
    Child child(served, dir, seed * 1000 + static_cast<std::uint64_t>(c),
                sites, storm ? 0 : 8);

    CycleRow row;
    row.cycle = c;
    row.mode = mode;
    row.prekill_rate = prekill_rate;

    {
      const obs::MetricsRegistry m = scrape(child.port);
      row.recovered = static_cast<std::uint64_t>(
          m.value("tgp_recovered_entries_total").value_or(0));
      row.dropped = recovery_dropped(m);
      const double clean = m.value("tgp_durability_clean_start").value_or(-1);
      if (c == 0 && row.recovered != 0)
        fail("cycle 0 recovered entries from an empty dir");
      if (c > 0 && row.recovered == 0)
        fail("restart recovered nothing — the journal did not survive");
      if (c > 0 && clean != 0)
        fail("boot after SIGKILL claimed a clean shutdown");
      totals.recovered += row.recovered;
      totals.dropped += row.dropped;
    }

    net::Client client(client_config(child.port));
    row.warm_rate = drive_core(client, "warm pass");
    if (c > 0 && floor_applies && row.warm_rate < 0.8 * prekill_rate)
      fail("warm hit rate " + std::to_string(row.warm_rate) +
           " fell below 80% of the pre-kill rate " +
           std::to_string(prekill_rate));
    prekill_rate = drive_core(client, "pre-kill pass");
    if (prekill_rate < 0.95)
      fail("pre-kill pass missed the cache — entries are not sticking");
    // The floor binds after steady-state cycles: journal mode, and the
    // warm pass barely re-appended anything (a recovery-heavy session
    // re-journals the working set under torn-append fire, so its tail is
    // legitimately at risk at the next boot — the integrity invariants
    // still hold there, only the rate floor is deferred).
    floor_applies = !storm && (c == 0 || row.warm_rate >= 0.95);

    // Kill mid-stream: a second client keeps fresh solves (and journal
    // appends) in flight until the SIGKILL lands under it.
    std::vector<svc::JobSpec> kill_specs = tools::generate_workload(
        kKillSpecs, 0xFEED + seed * 100 + static_cast<std::uint64_t>(c), 0.0);
    std::vector<svc::JobResult> kill_ref;
    for (const svc::JobSpec& s : kill_specs)
      kill_ref.push_back(svc::execute_job_captured(s));
    std::atomic<bool> killed{false};
    std::size_t kill_ok = 0;
    std::thread streamer([&] {
      try {
        net::Client kc(client_config(child.port));
        while (!killed.load()) {
          std::vector<net::SubmitRequest> requests;
          for (const svc::JobSpec& s : kill_specs) {
            net::SubmitRequest req;
            req.spec = s;
            requests.push_back(std::move(req));
          }
          std::vector<svc::JobResult> results = kc.run_batch(requests);
          for (std::size_t i = 0; i < results.size(); ++i) {
            if (results[i].status != svc::JobStatus::kOk) continue;
            if (results[i].cut.edges != kill_ref[i].cut.edges ||
                results[i].objective != kill_ref[i].objective ||
                results[i].components != kill_ref[i].components)
              fail("a mid-stream payload differs from the direct solve");
            ++kill_ok;
          }
        }
      } catch (const std::exception&) {
        // The SIGKILL tore the connection mid-batch — expected.
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    child.kill_hard();
    killed.store(true);
    streamer.join();
    row.kill_ok = kill_ok;
    totals.requests += kill_ok;

    table.row()
        .cell(static_cast<std::int64_t>(row.cycle))
        .cell(row.mode)
        .cell(static_cast<std::int64_t>(row.recovered))
        .cell(static_cast<std::int64_t>(row.dropped))
        .cell(row.warm_rate, 3)
        .cell(row.prekill_rate, 3)
        .cell(static_cast<std::int64_t>(row.kill_ok));
  }

  // Finale: SIGTERM is the graceful path — the flush must write a clean
  // marker that the next boot reads, and the set must come back warm.
  {
    Child child(served, dir, 0, "", 8);
    totals.dropped += recovery_dropped(scrape(child.port));
    net::Client client(client_config(child.port));
    (void)drive_core(client, "pre-flush pass");
    child.stop();  // SIGTERM → final journal sync + clean marker
  }
  {
    Child child(served, dir, 0, "", 8);
    const obs::MetricsRegistry m = scrape(child.port);
    if (m.value("tgp_durability_clean_start").value_or(-1) != 1)
      fail("SIGTERM flush did not leave a clean-shutdown marker");
    if (m.value("tgp_recovered_entries_total").value_or(-1) < 1)
      fail("clean restart recovered nothing");
    totals.dropped += recovery_dropped(m);
    totals.quarantined = static_cast<std::uint64_t>(
        m.value("tgp_quarantined_total").value_or(0));
    net::Client client(client_config(child.port));
    const double warm = drive_core(client, "post-flush pass");
    if (warm < 0.8) fail("clean restart did not come back warm");
    child.stop();
  }

  // A long soak that never cost a single record means the torn-write
  // storm never fired — the recovery machinery went untested.
  if (cycles >= 8 && totals.dropped == 0)
    fail("no record was ever dropped at recovery — the storm is vacuous");

  totals.seconds = timer.seconds();
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int runs = 1;
  int cycles = 10;
  std::uint64_t seed = 0xC4A5;
  std::string served;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc)
      runs = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc)
      cycles = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[i + 1]));
    if (std::strcmp(argv[i], "--served") == 0 && i + 1 < argc)
      served = argv[i + 1];
  }
  if (served.empty()) {
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
      "=== crash-recovery soak (%d SIGKILL/restart cycles, %d run(s)%s) "
      "===\n\n",
      cycles, runs, quick ? ", quick" : "");

  for (int r = 0; r < runs; ++r) {
    const std::uint64_t run_seed = seed + static_cast<std::uint64_t>(r);
    std::printf("--- run %d (seed %llu) ---\n", r,
                static_cast<unsigned long long>(run_seed));
    util::Table t({"cycle", "mode", "recovered", "dropped", "warm rate",
                   "pre-kill", "kill ok"});
    RunTotals totals = run_once(served, run_seed, cycles, quick, t);
    t.print();
    std::printf(
        "requests %zu, recovered %llu entries across boots (%llu records "
        "dropped at recovery, %llu quarantined), %.2f s\n\n",
        totals.requests, static_cast<unsigned long long>(totals.recovered),
        static_cast<unsigned long long>(totals.dropped),
        static_cast<unsigned long long>(totals.quarantined), totals.seconds);
  }
  std::printf(
      "no corrupt entry was ever served: every payload, warm or fresh,\n"
      "was bit-identical to the direct solve, across every SIGKILL.\n");
  return 0;
}
