#include "tools/served_tool.hpp"

#include <csignal>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <ostream>
#include <thread>
#include <unordered_set>

#include "net/backend.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "util/argparse.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace tgp::tools {

namespace {

/// Every nonzero exit gets exactly one trailing summary line on stderr
/// (parity with tgp_serve's batch_exit_report), so a supervisor's log
/// always explains a crash-looping shard.
int fail(std::ostream& err, int code, const std::string& summary) {
  err << "tgp_served: exiting " << code << " (" << summary << ")\n";
  return code;
}

// Signal target: stop() is an atomic store plus an eventfd write, both
// async-signal-safe.
std::atomic<net::Server*> g_server{nullptr};

void handle_stop_signal(int) {
  net::Server* s = g_server.load();
  if (s != nullptr) s->stop();
}

// Wraps the real handler to expose loop-thread activity to the idle
// watchdog thread through atomics.  Only inbound connections count as
// activity: a router's own health probes, their pongs and its metrics
// polls all travel on its outbound backend links, and must not keep an
// otherwise idle process alive past --stop-after-idle-ms.
class ActivityHandler : public net::Server::Handler {
 public:
  explicit ActivityHandler(net::Server::Handler& inner) : inner_(inner) {}

  void on_open(std::uint64_t conn, bool outbound) override {
    if (outbound) {
      outbound_.insert(conn);
    } else {
      open_.fetch_add(1);
      touch();
    }
    inner_.on_open(conn, outbound);
  }
  void on_frame(std::uint64_t conn, const net::FrameHeader& header,
                std::span<const std::uint8_t> payload) override {
    if (outbound_.count(conn) == 0) touch();
    inner_.on_frame(conn, header, payload);
  }
  void on_tick() override { inner_.on_tick(); }
  obs::MetricsRegistry on_metrics() override { return inner_.on_metrics(); }
  void on_close(std::uint64_t conn) override {
    if (outbound_.erase(conn) == 0) {
      if (open_.load() > 0) open_.fetch_sub(1);
      touch();
    }
    inner_.on_close(conn);
  }

  bool idle_for(double ms) const {
    if (open_.load() > 0) return false;
    const auto idle = std::chrono::steady_clock::now() - last_.load();
    return std::chrono::duration<double, std::milli>(idle).count() >= ms;
  }

 private:
  void touch() { last_.store(std::chrono::steady_clock::now()); }

  net::Server::Handler& inner_;
  std::unordered_set<std::uint64_t> outbound_;  // loop thread only
  std::atomic<std::size_t> open_{0};
  std::atomic<std::chrono::steady_clock::time_point> last_{
      std::chrono::steady_clock::now()};
};

/// Parse "site=prob,site=prob" per-site overrides for --fault-sites.
/// Returns false (and reports on err) on a malformed item.
bool parse_fault_sites(const std::string& list, std::ostream& err) {
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    std::string item = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!item.empty()) {
      std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        err << "error: --fault-sites item '" << item
            << "' is not SITE=PROBABILITY\n";
        return false;
      }
      util::faults().set_site_probability(item.substr(0, eq),
                                          std::stod(item.substr(eq + 1)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

/// Dump per-site injection counts at exit so a chaos harness can verify
/// the storm actually fired, then disarm.
void report_faults(std::ostream& err) {
  if (!util::faults().armed()) return;
  for (const auto& st : util::faults().report())
    err << "fault " << st.site << ": " << st.fired << "/" << st.calls
        << " fired\n";
  util::faults().disarm();
}

/// Dump the span rings to `path` as Chrome trace JSON with the process
/// metadata the multi-file stitcher aligns on.  Shared by both modes;
/// called after the event loop stops (SIGTERM included — graceful exit
/// is what makes mid-failover shard traces recoverable).
void dump_trace(const std::string& path, const std::string& process_name,
                std::ostream& err) {
  obs::trace::set_enabled(false);
  obs::trace::TraceSnapshot snap = obs::trace::snapshot();
  std::ofstream tf(path);
  if (!tf.good()) {
    err << "error: cannot write trace file '" << path << "'\n";
    return;
  }
  obs::ChromeTraceMeta meta;
  meta.process_name = process_name;
  meta.epoch_unix_us = obs::trace::epoch_unix_us();
  obs::write_chrome_trace(tf, snap, meta);
  err << "trace: " << snap.recorded << " events (" << snap.dropped
      << " dropped) -> " << path << "\n";
}

std::vector<std::pair<std::string, std::uint16_t>> parse_backend_list(
    const std::string& list) {
  std::vector<std::pair<std::string, std::uint16_t>> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    std::string item = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!item.empty()) out.push_back(net::parse_host_port(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

void serve(net::Server& server, ActivityHandler& activity,
           double stop_after_idle_ms) {
  g_server.store(&server);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::thread watchdog;
  std::atomic<bool> watchdog_stop{false};
  if (stop_after_idle_ms > 0) {
    watchdog = std::thread([&] {
      while (!watchdog_stop.load()) {
        if (activity.idle_for(stop_after_idle_ms)) {
          server.stop();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  server.run();
  watchdog_stop.store(true);
  if (watchdog.joinable()) watchdog.join();
  g_server.store(nullptr);
  // Ignore (not default) from here on: a second SIGTERM during the drain
  // window — service shutdown, metrics report, trace dump — must not
  // kill the process before the trace file lands on disk.  Mid-failover
  // shard traces are only stitchable because this exit stays graceful.
  std::signal(SIGINT, SIG_IGN);
  std::signal(SIGTERM, SIG_IGN);
}

}  // namespace

std::string served_tool_help() {
  return
      "tgp_served — networked partition service (backend or shard router)\n"
      "\n"
      "usage: tgp_served [--port P] [--bind ADDR] [--max-frame-mb M]\n"
      "                  [--stop-after-idle-ms MS] [--log-level LEVEL]\n"
      "                  [--tick-ms MS] [--fault-rate P] [--fault-seed S]\n"
      "                  [--fault-sites SITE=P,...] [--fault-stall-ms MS]\n"
      "                  [--trace-out FILE] [--trace-name NAME]\n"
      "                  [--trace-buf N]\n"
      "          backend: [--threads N] [--cache-mb M] [--queue-cap C]\n"
      "                  [--max-inflight N] [--rate-limit R]\n"
      "                  [--cache-dir DIR] [--cache-compact-mb M]\n"
      "                  [--durable-fsync] [--verify]\n"
      "                  [--shard-index I --shard-count N]\n"
      "          router:  --route HOST:PORT[,HOST:PORT...]\n"
      "                  [--tenant-rate R] [--tenant-burst B]\n"
      "                  [--max-outstanding N] [--max-queued N]\n"
      "                  [--fail-threshold N] [--down-cooldown-ms MS]\n"
      "                  [--recover-probes N] [--probe-timeout-ms MS]\n"
      "                  [--connect-timeout-ms MS]\n"
      "                  [--metrics-every-ticks N] [--slow-log FILE]\n"
      "                  [--slow-log-size K]\n"
      "\n"
      "Speaks the tgp binary wire protocol (length-prefixed frames; see\n"
      "docs/architecture.md).  Prints exactly one 'listening on HOST:PORT'\n"
      "line to stdout — with --port 0 that is how callers learn the\n"
      "ephemeral port — then serves until SIGINT/SIGTERM (or until idle\n"
      "for --stop-after-idle-ms, for scripted runs).  The same port also\n"
      "answers plain-HTTP 'GET /metrics' with Prometheus text.\n"
      "\n"
      "Backend mode runs a PartitionService behind the socket; service\n"
      "flags match tgp_serve.  --shard-index/--shard-count tell a fleet\n"
      "member its ring position so it can verify cache ownership (the\n"
      "tgp_net_shard_*_total{ownership=...} metrics).\n"
      "\n"
      "Router mode forwards every submit to the backend owning the\n"
      "graph's canonical fingerprint on a consistent-hash ring, computing\n"
      "the fingerprint when the client did not.  --tenant-rate enforces a\n"
      "per-tenant token-bucket quota (kQuotaExceeded rejects); admitted\n"
      "submits beyond --max-outstanding wait in a per-tenant round-robin\n"
      "fair queue of at most --max-queued (kOverloaded beyond that).\n"
      "\n"
      "With --tick-ms the router actively health-checks its backends\n"
      "(ping probes every tick; --fail-threshold consecutive misses mark\n"
      "a shard down).  A dead shard's in-flight and new work goes to the\n"
      "ring successor; only when no shard is serving is a submit\n"
      "rejected.  The router reconnects after --down-cooldown-ms and\n"
      "drains the shard back in once --recover-probes probes answer.\n"
      "\n"
      "--cache-dir makes the memo cache survive restarts: entries are\n"
      "journaled as they are solved (checksummed, crash-safe), recovered\n"
      "on the next boot from the same directory, and re-verified by the\n"
      "independent checker on first hit.  SIGTERM flushes a clean-\n"
      "shutdown marker so the next boot skips the torn-record scan; a\n"
      "SIGKILL only costs the torn tail of the journal.  --verify runs\n"
      "the O(n) checker on every result (hits and fresh solves).\n"
      "\n"
      "--fault-rate arms the deterministic fault injector (seeded by\n"
      "--fault-seed) across every site; --fault-sites overrides per-site\n"
      "probabilities, e.g. net.frame.drop=0.01,net.sock.read=0.005 (see\n"
      "net/socket.hpp for the wire sites).  Injection is in-process and\n"
      "reproducible: same seed, same faults.\n"
      "\n"
      "--trace-out records spans (including the distributed-trace ids of\n"
      "every traced client request flowing through) and writes Chrome\n"
      "trace JSON on exit; --trace-name labels the process in the\n"
      "stitched view (default backend/router plus the port).  Router\n"
      "mode: --metrics-every-ticks polls each shard's metrics registry so\n"
      "one router /metrics scrape covers the fleet (shard=\"N\" labels),\n"
      "and --slow-log writes the slowest-K requests (phase breakdown per\n"
      "request) as JSON on exit; render with tgp_trace_dump --slow-log.\n";
}

int run_served_tool(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  std::vector<const char*> argv{"tgp_served"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  net::ignore_sigpipe();  // a dead peer is EPIPE on write, not SIGKILL
  try {
    util::ArgParser parser(static_cast<int>(argv.size()), argv.data());
    parser.describe("port", "listen port (0 = ephemeral, printed)")
        .describe("bind", "bind address (default 127.0.0.1)")
        .describe("max-frame-mb", "per-frame payload cap in MiB")
        .describe("stop-after-idle-ms", "exit once idle this long")
        .describe("log-level", "stderr log threshold")
        .describe("threads", "worker threads")
        .describe("cache-mb", "cache budget in MiB (0 disables)")
        .describe("queue-cap", "job queue capacity")
        .describe("max-inflight", "admission cap on jobs in flight")
        .describe("rate-limit", "admission rate limit in jobs/sec")
        .describe("cache-dir", "persist the cache here across restarts")
        .describe("cache-compact-mb", "journal size triggering compaction")
        .describe("durable-fsync", "fsync the journal on every append")
        .describe("verify", "independently re-check every result")
        .describe("shard-index", "this backend's ring position")
        .describe("shard-count", "fleet size for ownership accounting")
        .describe("route", "router mode: backend list HOST:PORT,...")
        .describe("tenant-rate", "per-tenant admission rate in jobs/sec")
        .describe("tenant-burst", "per-tenant token-bucket capacity")
        .describe("max-outstanding", "router cap on in-flight forwards")
        .describe("max-queued", "router fair-queue capacity")
        .describe("tick-ms", "event-loop timer period (enables probing)")
        .describe("fail-threshold", "consecutive probe misses marking down")
        .describe("down-cooldown-ms", "wait before re-dialing a down shard")
        .describe("recover-probes", "probes to pass before rejoining")
        .describe("probe-timeout-ms", "unanswered-ping deadline")
        .describe("connect-timeout-ms", "reconnect dial deadline")
        .describe("fault-rate", "arm fault injection at this probability")
        .describe("fault-seed", "fault injector seed")
        .describe("fault-sites", "per-site overrides SITE=P,SITE=P")
        .describe("fault-stall-ms", "duration of injected outbound stalls")
        .describe("trace-out", "write Chrome trace JSON to FILE on exit")
        .describe("trace-name", "process label in the stitched trace")
        .describe("trace-buf", "trace ring size in events per thread")
        .describe("metrics-every-ticks",
                  "router: poll shard metrics every N ticks for /metrics "
                  "fleet aggregation (0 = off)")
        .describe("slow-log", "router: write slowest-K JSON to FILE on exit")
        .describe("slow-log-size", "router: tail exemplars kept (default 8)");
    if (parser.has("help")) {
      out << served_tool_help();
      return 0;
    }
    parser.check_unknown();

    if (parser.has("log-level")) {
      util::LogLevel level;
      std::string name = parser.get("log-level", "info");
      if (!util::parse_log_level(name, level)) {
        err << "error: unknown log level '" << name << "'\n";
        return fail(err, 2, "usage: unknown log level");
      }
      util::set_log_level(level);
    }

    net::Server::Config server_config;
    server_config.bind = parser.get("bind", "127.0.0.1");
    server_config.port =
        static_cast<std::uint16_t>(parser.get_int("port", 0));
    server_config.max_payload_bytes = static_cast<std::uint32_t>(
        parser.get_int("max-frame-mb",
                       net::kDefaultMaxPayload >> 20) << 20);
    server_config.tick_interval_ms =
        static_cast<int>(parser.get_int("tick-ms", 0));
    server_config.fault_stall_ms =
        static_cast<int>(parser.get_int("fault-stall-ms", 25));
    const double idle_ms = parser.get_double("stop-after-idle-ms", 0);

    const std::string trace_path = parser.get("trace-out", "");
    if (!trace_path.empty()) {
      obs::trace::set_ring_capacity(static_cast<std::size_t>(
          parser.get_int("trace-buf", 65536)));
      obs::trace::set_thread_name("main");
      obs::trace::clear();
      obs::trace::set_enabled(true);
    }

    const double fault_rate = parser.get_double("fault-rate", 0);
    if (fault_rate > 0 || parser.has("fault-sites")) {
      util::faults().arm(
          static_cast<std::uint64_t>(parser.get_int("fault-seed", 1)),
          fault_rate);
      if (!parse_fault_sites(parser.get("fault-sites", ""), err)) {
        util::faults().disarm();
        return fail(err, 2, "usage: bad --fault-sites");
      }
    }

    if (parser.has("route")) {
      auto backends = parse_backend_list(parser.get("route", ""));
      if (backends.empty()) {
        err << "error: --route needs HOST:PORT[,HOST:PORT...]\n";
        return fail(err, 2, "usage: empty --route");
      }
      net::Router::Config rc;
      rc.tenant_quota.rate_per_sec = parser.get_double("tenant-rate", 0);
      rc.tenant_quota.burst = parser.get_double("tenant-burst", 0);
      rc.max_outstanding =
          static_cast<std::size_t>(parser.get_int("max-outstanding", 1024));
      rc.max_queued =
          static_cast<std::size_t>(parser.get_int("max-queued", 4096));
      rc.health.fail_threshold =
          static_cast<int>(parser.get_int("fail-threshold", 3));
      rc.health.down_cooldown_us =
          parser.get_double("down-cooldown-ms", 250) * 1000;
      rc.health.recover_probes =
          static_cast<int>(parser.get_int("recover-probes", 2));
      rc.probe_timeout_us = parser.get_double("probe-timeout-ms", 500) * 1000;
      rc.connect_timeout_ms =
          static_cast<int>(parser.get_int("connect-timeout-ms", 250));
      rc.metrics_every_ticks =
          static_cast<int>(parser.get_int("metrics-every-ticks", 0));
      rc.slow_log_size =
          static_cast<std::size_t>(parser.get_int("slow-log-size", 8));
      net::Router router(rc);
      ActivityHandler activity(router);
      net::Server server(server_config, activity);
      router.attach(server);
      router.connect_backends(backends);
      out << "listening on " << server_config.bind << ":" << server.port()
          << "\n";
      out.flush();
      serve(server, activity, idle_ms);
      report_faults(err);
      if (!trace_path.empty())
        dump_trace(trace_path, parser.get("trace-name", "router"), err);
      if (parser.has("slow-log")) {
        const std::string slow_path = parser.get("slow-log", "");
        std::ofstream sf(slow_path);
        if (!sf.good()) {
          err << "error: cannot write slow log '" << slow_path << "'\n";
        } else {
          sf << router.slow_log_json() << "\n";
          err << "slow log -> " << slow_path << "\n";
        }
      }
      const net::Router::Stats s = router.stats();
      err << "router: " << s.forwarded << " forwarded, " << s.returned
          << " returned, " << s.quota_rejects << " quota rejects, "
          << s.overload_rejects << " overload rejects, "
          << s.shard_down_rejects << " shard-down rejects\n";
      err << "fleet: " << s.failovers << " failover(s), " << s.recoveries
          << " recovery(ies), " << s.handoffs << " handoff(s), "
          << s.requests_rerouted << " rerouted, " << s.duplicates_dropped
          << " duplicate(s) dropped, " << s.pings_sent << " ping(s), "
          << s.ping_misses << " miss(es), " << s.reconnects
          << " reconnect(s)\n";
      return 0;
    }

    svc::ServiceConfig config;
    config.threads = static_cast<int>(parser.get_int("threads", 0));
    config.cache_bytes =
        static_cast<std::size_t>(parser.get_int("cache-mb", 64)) << 20;
    config.queue_capacity =
        static_cast<std::size_t>(parser.get_int("queue-cap", 1024));
    config.max_inflight =
        static_cast<std::size_t>(parser.get_int("max-inflight", 0));
    config.rate_limit_per_sec = parser.get_double("rate-limit", 0);
    config.cache_dir = parser.get("cache-dir", "");
    config.journal_compact_bytes =
        static_cast<std::size_t>(parser.get_int("cache-compact-mb", 8)) << 20;
    config.durable_fsync = parser.get_bool("durable-fsync", false);
    config.verify_results = parser.get_bool("verify", false);

    net::Backend::Config bc;
    bc.shard_index =
        static_cast<std::uint32_t>(parser.get_int("shard-index", 0));
    bc.shard_count =
        static_cast<std::uint32_t>(parser.get_int("shard-count", 1));
    if (bc.shard_count > 0 && bc.shard_index >= bc.shard_count) {
      err << "error: --shard-index must be below --shard-count\n";
      return fail(err, 2, "usage: shard index out of range");
    }

    svc::PartitionService service(config);
    if (!config.cache_dir.empty()) {
      const svc::MetricsSnapshot::DurabilityStats d =
          service.metrics().durability;
      err << "durable: recovered " << d.recovered_entries << " entries from "
          << config.cache_dir << " ("
          << (d.clean_start ? "clean shutdown" : "crash recovery")
          << ", dropped "
          << (d.dropped_crc + d.dropped_truncated + d.dropped_stale_epoch +
              d.dropped_malformed)
          << ")\n";
    }
    net::Backend backend(service, bc);
    ActivityHandler activity(backend);
    net::Server server(server_config, activity);
    backend.attach(server);
    out << "listening on " << server_config.bind << ":" << server.port()
        << "\n";
    out.flush();
    serve(server, activity, idle_ms);
    report_faults(err);
    service.shutdown();
    if (!config.cache_dir.empty()) {
      // Graceful-exit flush: sync the journal and mint the clean marker
      // so the next boot over this directory skips the torn-record scan.
      const std::size_t flushed = service.flush_durable();
      err << "durable: flushed " << flushed << " entries (clean shutdown)\n";
    }
    if (!trace_path.empty())
      dump_trace(trace_path,
                 parser.get("trace-name",
                            "shard-" + std::to_string(bc.shard_index)),
                 err);
    obs::MetricsRegistry metrics;
    service.metrics().record(metrics);
    err << obs::render_text(metrics, "service metrics");
    const net::Backend::ShardStats s = backend.shard_stats();
    err << "shard: " << s.owned_submits << " owned, " << s.foreign_submits
        << " foreign, " << s.unrouted_submits << " unrouted submit(s); "
        << s.owned_cache_hits << " owned, " << s.foreign_cache_hits
        << " foreign cache hit(s)\n";
    return 0;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return fail(err, 1, e.what());
  }
}

}  // namespace tgp::tools
