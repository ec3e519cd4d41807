#include "tools/client_tool.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "net/client.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "tools/serve_tool.hpp"
#include "util/argparse.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace tgp::tools {

std::string client_tool_help() {
  return
      "tgp_client — drive a tgp_served backend or router over TCP\n"
      "\n"
      "usage: tgp_client --connect HOST:PORT\n"
      "                  (--jobs FILE | --generate N | --ping | --metrics)\n"
      "                  [--seed S] [--dup-frac F] [--deadline-us D]\n"
      "                  [--tenant T] [--no-results] [--log-level LEVEL]\n"
      "                  [--connect-timeout-ms MS] [--timeout-ms MS]\n"
      "                  [--reconnect N] [--hedge-ms MS] [--checksum]\n"
      "                  [--trace-out FILE] [--trace-buf N] [--clock-sync]\n"
      "\n"
      "Submits the same workloads as tgp_serve (same --jobs file format,\n"
      "same --generate synthesis) over the binary wire protocol, pipelining\n"
      "the whole batch on one connection, and prints the same deterministic\n"
      "results table with the same exit codes (0 ok, 3 failures or skipped\n"
      "rows, 4 admission sheds, 2 usage, 1 fatal/transport).  Against a\n"
      "default backend, stdout is byte-identical to an in-process\n"
      "tgp_serve run of the same workload.\n"
      "\n"
      "  --connect HOST:PORT  server address (required)\n"
      "  --jobs FILE          job file (problem,K,source per line)\n"
      "  --generate N         synthesize an N-job mixed workload\n"
      "  --seed S             seed for --generate (default 42)\n"
      "  --dup-frac F         duplicate fraction for --generate (0.5)\n"
      "  --deadline-us D      per-job deadline in microseconds\n"
      "  --tenant T           tenant id stamped on every submit (0)\n"
      "  --no-results         suppress the results table\n"
      "  --ping               round-trip a liveness probe and exit\n"
      "  --metrics            print the server's Prometheus metrics\n"
      "\n"
      "Resilience (all off by default; stdout stays byte-identical —\n"
      "recovery happens on stderr):\n"
      "  --connect-timeout-ms MS  bound the TCP handshake\n"
      "  --timeout-ms MS      io deadline: no data this long = timeout\n"
      "  --reconnect N        re-dial up to N times on transport failure\n"
      "                       or timeout, re-sending unanswered submits\n"
      "  --hedge-ms MS        duplicate a submit still unanswered after\n"
      "                       MS ms under a fresh id; first answer wins\n"
      "  --checksum           end-to-end integrity: append a CRC32C\n"
      "                       suffix to every submit and verify the one\n"
      "                       the backend echoes on the result (corrupt\n"
      "                       frames fail loudly instead of silently)\n"
      "\n"
      "Distributed tracing:\n"
      "  --trace-out FILE     stamp a sampled trace context onto every\n"
      "                       submit, record a client root span per\n"
      "                       request, and write Chrome trace JSON.  The\n"
      "                       server's clock offset is measured first\n"
      "                       (ping RTT midpoint) and recorded in the\n"
      "                       file, so tgp_trace_dump can stitch this\n"
      "                       trace with the fleet's --trace-out files.\n"
      "  --trace-buf N        trace ring size in events (default 65536)\n"
      "  --clock-sync         print the measured offset estimate\n";
}

int run_client_tool(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  std::vector<const char*> argv{"tgp_client"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  try {
    util::ArgParser parser(static_cast<int>(argv.size()), argv.data());
    parser.describe("connect", "server HOST:PORT")
        .describe("jobs", "job file (problem,K,source per line)")
        .describe("generate", "synthesize an N-job workload")
        .describe("seed", "workload seed")
        .describe("dup-frac", "duplicate fraction for --generate")
        .describe("deadline-us", "per-job deadline in microseconds")
        .describe("tenant", "tenant id for every submit")
        .describe("no-results", "suppress the results table")
        .describe("ping", "liveness probe")
        .describe("metrics", "fetch server Prometheus metrics")
        .describe("log-level", "stderr log threshold")
        .describe("connect-timeout-ms", "TCP handshake deadline")
        .describe("timeout-ms", "io-silence deadline")
        .describe("reconnect", "re-dial budget on transport failure")
        .describe("hedge-ms", "hedge unanswered submits after this long")
        .describe("checksum", "CRC32C-protect every frame end to end")
        .describe("trace-out", "trace every submit, write Chrome JSON here")
        .describe("trace-buf", "trace ring size in events")
        .describe("clock-sync", "print the server clock-offset estimate");
    if (parser.has("help")) {
      out << client_tool_help();
      return 0;
    }
    parser.check_unknown();

    if (parser.has("log-level")) {
      util::LogLevel level;
      std::string name = parser.get("log-level", "info");
      if (!util::parse_log_level(name, level)) {
        err << "error: unknown log level '" << name << "'\n";
        return 2;
      }
      util::set_log_level(level);
    }

    if (!parser.has("connect")) {
      err << "error: need --connect HOST:PORT (see --help)\n";
      return 2;
    }
    auto [host, port] = net::parse_host_port(parser.get("connect", ""));

    net::ignore_sigpipe();
    net::Client::Config cc;
    cc.host = host;
    cc.port = port;
    cc.connect_timeout_ms =
        static_cast<int>(parser.get_int("connect-timeout-ms", 0));
    cc.io_timeout_ms = static_cast<int>(parser.get_int("timeout-ms", 0));
    cc.reconnect_attempts = static_cast<int>(parser.get_int("reconnect", 0));
    cc.hedge_after_ms = static_cast<int>(parser.get_int("hedge-ms", 0));
    cc.seed = static_cast<std::uint64_t>(parser.get_int("seed", 42));
    cc.checksum = parser.get_bool("checksum", false);

    const std::string trace_path = parser.get("trace-out", "");
    cc.trace = !trace_path.empty();

    if (parser.get_bool("ping", false)) {
      net::Client client(cc);
      client.ping();
      out << "pong from " << host << ":" << port << "\n";
      return 0;
    }
    if (parser.get_bool("clock-sync", false) && !cc.trace) {
      net::Client client(cc);
      const net::Client::ClockSync sync = client.measure_clock_offset();
      if (!sync.valid) {
        err << "error: server did not answer with a wall clock (pre-v2?)\n";
        return 1;
      }
      out << "clock offset: " << sync.offset_us << " us (server minus "
          << "client, rtt " << sync.rtt_us << " us)\n";
      return 0;
    }
    if (parser.get_bool("metrics", false)) {
      net::Client client(cc);
      out << obs::render_prometheus(client.fetch_metrics());
      return 0;
    }

    std::vector<svc::JobSpec> specs;
    int rows_skipped = 0;
    if (parser.has("jobs")) {
      std::string path = parser.get("jobs", "");
      std::ifstream in(path);
      if (!in.good()) {
        err << "error: cannot open '" << path << "'\n";
        return 2;
      }
      ParsedJobs parsed = parse_job_file_lenient(in, err);
      specs = std::move(parsed.specs);
      rows_skipped = parsed.rows_skipped;
    } else if (parser.has("generate")) {
      specs = generate_workload(
          static_cast<int>(parser.get_int("generate", 0)),
          static_cast<std::uint64_t>(parser.get_int("seed", 42)),
          parser.get_double("dup-frac", 0.5));
    } else {
      err << "error: need --jobs FILE or --generate N (see --help)\n";
      return 2;
    }
    if (specs.empty()) {
      err << "error: no jobs to run\n";
      return 2;
    }

    double deadline_us = parser.get_double("deadline-us", 0);
    if (deadline_us > 0)
      for (svc::JobSpec& s : specs) s.deadline_micros = deadline_us;

    std::vector<JobEcho> echo = make_echo(specs);
    const auto tenant =
        static_cast<std::uint32_t>(parser.get_int("tenant", 0));
    std::vector<net::SubmitRequest> requests;
    requests.reserve(specs.size());
    for (svc::JobSpec& s : specs) {
      net::SubmitRequest req;
      req.tenant = tenant;
      req.spec = std::move(s);
      requests.push_back(std::move(req));
    }

    if (cc.trace) {
      obs::trace::set_ring_capacity(static_cast<std::size_t>(
          parser.get_int("trace-buf", 65536)));
      obs::trace::set_thread_name("client");
      obs::trace::clear();
      obs::trace::set_enabled(true);
    }

    net::Client client(cc);
    net::Client::ClockSync sync;
    if (cc.trace) {
      // Measure the server's wall-clock offset before the batch so the
      // trace file records it — that is what lets the stitcher align
      // this client's timeline with the fleet's across hosts.
      sync = client.measure_clock_offset();
      if (parser.get_bool("clock-sync", false))
        err << "clock offset: " << sync.offset_us << " us (server minus "
            << "client, rtt " << sync.rtt_us << " us, "
            << (sync.valid ? "measured" : "unavailable") << ")\n";
    }
    double wall_seconds = 0;
    std::vector<svc::JobResult> results;
    {
      util::ScopedTimer t(wall_seconds, util::ScopedTimer::Unit::kSeconds);
      results = client.run_batch(requests);
    }
    if (cc.trace) {
      obs::trace::set_enabled(false);
      obs::trace::TraceSnapshot snap = obs::trace::snapshot();
      std::ofstream tf(trace_path);
      if (!tf.good()) {
        err << "error: cannot write trace file '" << trace_path << "'\n";
      } else {
        obs::ChromeTraceMeta meta;
        meta.process_name = "client";
        meta.epoch_unix_us = obs::trace::epoch_unix_us();
        meta.clock_offset_us = sync.valid ? sync.offset_us : 0;
        obs::write_chrome_trace(tf, snap, meta);
        err << "trace: " << snap.recorded << " events (" << snap.dropped
            << " dropped) -> " << trace_path << "\n";
      }
    }

    if (!parser.get_bool("no-results", false))
      out << render_results_table(echo, results);
    err << "wall time: " << util::fmt(wall_seconds, 3) << " s, throughput: "
        << util::fmt(static_cast<double>(results.size()) /
                         std::max(wall_seconds, 1e-9),
                     1)
        << " jobs/s\n";
    const net::Client::Stats& cs = client.stats();
    if (cs.reconnects > 0 || cs.hedges_sent > 0 || cs.timeouts > 0 ||
        cs.duplicates_dropped > 0) {
      err << "resilience: " << cs.reconnects << " reconnect(s), "
          << cs.resubmitted << " resubmitted, " << cs.hedges_sent
          << " hedge(s) sent, " << cs.hedge_wins << " hedge win(s), "
          << cs.duplicates_dropped << " duplicate(s) dropped, "
          << cs.timeouts << " timeout(s)\n";
    }
    return batch_exit_report(results, rows_skipped, err);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    err << "batch aborted before completion\n";
    return 1;
  }
}

}  // namespace tgp::tools
