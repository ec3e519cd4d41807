#include "tools/serve_tool.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "util/argparse.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace tgp::tools {

namespace {

std::string trim(const std::string& s) {
  std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string part;
  while (std::getline(is, part, sep)) out.push_back(part);
  return out;
}

// Shared graph payload: either kind, exactly one set.
struct LoadedGraph {
  std::shared_ptr<const graph::Chain> chain;
  std::shared_ptr<const graph::Tree> tree;
};

// `gen:KIND:n=N:seed=S` → a deterministic synthetic graph.
LoadedGraph generate_source(const std::vector<std::string>& parts) {
  TGP_REQUIRE(parts.size() >= 2, "gen: needs a kind, e.g. gen:chain:n=100");
  const std::string& kind = parts[1];
  int n = 100;
  std::uint64_t seed = 1;
  for (std::size_t i = 2; i < parts.size(); ++i) {
    std::vector<std::string> kv = split(parts[i], '=');
    TGP_REQUIRE(kv.size() == 2, "gen parameter must be key=value, got '" +
                                    parts[i] + "'");
    if (kv[0] == "n")
      n = std::stoi(kv[1]);
    else if (kv[0] == "seed")
      seed = static_cast<std::uint64_t>(std::stoull(kv[1]));
    else
      TGP_REQUIRE(false, "unknown gen parameter '" + kv[0] + "'");
  }
  util::Pcg32 rng(seed ^ 0x7365727665ull, 7);
  auto vdist = graph::WeightDist::uniform(1, 100);
  auto edist = graph::WeightDist::uniform(1, 100);
  LoadedGraph g;
  if (kind == "chain") {
    g.chain = std::make_shared<const graph::Chain>(
        graph::random_chain(rng, n, vdist, edist));
  } else if (kind == "tree") {
    g.tree = std::make_shared<const graph::Tree>(
        graph::random_tree(rng, n, vdist, edist));
  } else if (kind == "binary") {
    g.tree = std::make_shared<const graph::Tree>(
        graph::random_binary_tree(rng, n, vdist, edist));
  } else if (kind == "star") {
    g.tree = std::make_shared<const graph::Tree>(
        graph::star_tree(rng, n, vdist, edist));
  } else {
    TGP_REQUIRE(false, "unknown gen kind '" + kind +
                           "' (want chain|tree|binary|star)");
  }
  return g;
}

LoadedGraph load_source(const std::string& source) {
  std::vector<std::string> parts = split(source, ':');
  TGP_REQUIRE(!parts.empty(), "empty job source");
  if (parts[0] == "gen") return generate_source(parts);
  TGP_REQUIRE(parts[0] == "file" && parts.size() == 2,
              "job source must be file:PATH or gen:KIND:..., got '" + source +
                  "'");
  const std::string& path = parts[1];
  std::ifstream in(path);
  TGP_REQUIRE(in.good(), "cannot open '" + path + "'");
  std::string magic;
  in >> magic;
  in.seekg(0);
  LoadedGraph g;
  if (magic == "tgp-chain") {
    g.chain = std::make_shared<const graph::Chain>(graph::load_chain(in));
  } else if (magic == "tgp-tree") {
    g.tree = std::make_shared<const graph::Tree>(graph::load_tree(in));
  } else {
    TGP_REQUIRE(false, "unrecognized graph format in '" + path + "'");
  }
  return g;
}

graph::Weight resolve_k(const std::string& kspec, const LoadedGraph& g) {
  std::string k = trim(kspec);
  TGP_REQUIRE(!k.empty(), "empty K field");
  double maxw, total;
  if (g.chain) {
    maxw = g.chain->max_vertex_weight();
    total = g.chain->total_vertex_weight();
  } else {
    maxw = g.tree->max_vertex_weight();
    total = g.tree->total_vertex_weight();
  }
  if (k.back() == '%') {
    double pct = std::stod(k.substr(0, k.size() - 1));
    return maxw + pct / 100.0 * (total - maxw);
  }
  return std::stod(k);
}

// Deterministic 64-bit digest of a cut's edge list, so the results table
// captures the exact cut without printing every index.
std::uint64_t cut_digest(const graph::Cut& cut) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int e : cut.edges) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(e));
    h *= 0x100000001b3ull;
  }
  return h;
}

// Parse one already-trimmed, non-comment job row.  Throws
// std::invalid_argument (with the line number) on malformed input.
svc::JobSpec parse_job_row(const std::string& body, int lineno,
                           std::map<std::string, LoadedGraph>& graphs) {
  try {
    std::vector<std::string> cells = split(body, ',');
    TGP_REQUIRE(cells.size() == 3, "want 'problem,K,source' (3 fields, got " +
                                       std::to_string(cells.size()) + ")");
    svc::Problem problem = svc::parse_problem(trim(cells[0]));
    std::string source = trim(cells[2]);
    auto it = graphs.find(source);
    if (it == graphs.end())
      it = graphs.emplace(source, load_source(source)).first;
    const LoadedGraph& g = it->second;
    graph::Weight K = resolve_k(cells[1], g);
    return g.chain ? svc::JobSpec::for_chain(problem, K, g.chain)
                   : svc::JobSpec::for_tree(problem, K, g.tree);
  } catch (const std::exception& e) {
    throw std::invalid_argument("line " + std::to_string(lineno) + ": " +
                                e.what());
  }
}

// Periodic one-line progress reports on `err` while the batch runs.  The
// main thread is blocked inside run_batch() and workers never write to
// the diagnostic stream, so the reporter is the stream's only writer.
class StatsReporter {
 public:
  StatsReporter(const svc::PartitionService& service, std::ostream& err,
                double interval_ms)
      : service_(service), err_(err) {
    thread_ = std::thread([this, interval_ms] {
      std::unique_lock lk(mu_);
      while (!stop_) {
        cv_.wait_for(lk,
                     std::chrono::microseconds(
                         static_cast<std::int64_t>(interval_ms * 1000)),
                     [&] { return stop_; });
        if (stop_) break;
        svc::MetricsSnapshot m = service_.metrics();
        err_ << "[stats] " << m.completed << "/" << m.submitted
             << " jobs, cache hit "
             << util::fmt(100.0 * m.cache.hit_rate(), 1) << "%, p50 "
             << util::fmt(m.overall_latency().quantile_upper_micros(0.5), 0)
             << " us\n";
      }
    });
  }

  ~StatsReporter() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  const svc::PartitionService& service_;
  std::ostream& err_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

std::vector<JobEcho> make_echo(const std::vector<svc::JobSpec>& specs) {
  std::vector<JobEcho> echo;
  echo.reserve(specs.size());
  for (const svc::JobSpec& s : specs)
    echo.push_back({s.is_chain() ? "chain" : "tree",
                    svc::problem_name(s.problem), s.n(), s.K});
  return echo;
}

std::string render_results_table(const std::vector<JobEcho>& echo,
                                 const std::vector<svc::JobResult>& results) {
  TGP_REQUIRE(echo.size() == results.size(),
              "echo/result row count mismatch");
  util::Table table({"job", "graph", "n", "problem", "K", "status",
                     "cut edges", "cut digest", "objective", "parts"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const svc::JobResult& r = results[i];
    util::Table& row = table.row()
                           .cell(static_cast<std::int64_t>(i))
                           .cell(echo[i].kind)
                           .cell(echo[i].n)
                           .cell(echo[i].problem)
                           .cell(echo[i].K, 3);
    if (!r.ok) {
      row.cell(svc::job_status_name(r.status))
          .cell(0)
          .cell("-")
          .cell(r.error)
          .cell(0);
      continue;
    }
    char digest[20];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(cut_digest(r.cut)));
    row.cell(svc::job_status_name(r.status))
        .cell(r.cut.size())
        .cell(digest)
        .cell(r.objective, 6)
        .cell(r.components);
  }
  return table.render();
}

int batch_exit_report(const std::vector<svc::JobResult>& results,
                      int rows_skipped, std::ostream& err) {
  std::size_t jobs_failed = 0;
  std::size_t jobs_overloaded = 0;
  for (const svc::JobResult& r : results) {
    if (r.status == svc::JobStatus::kOverloaded)
      ++jobs_overloaded;
    else if (!r.ok)
      ++jobs_failed;
  }
  if (jobs_failed > 0 || rows_skipped > 0) {
    err << "batch degraded: " << jobs_failed + jobs_overloaded
        << " job(s) failed, " << rows_skipped << " row(s) skipped\n";
    return 3;
  }
  if (jobs_overloaded > 0) {
    err << "batch shed: " << jobs_overloaded
        << " job(s) rejected by admission control\n";
    return 4;
  }
  return 0;
}

std::vector<svc::JobSpec> parse_job_file(std::istream& in) {
  std::vector<svc::JobSpec> specs;
  std::map<std::string, LoadedGraph> graphs;  // share duplicate sources
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    specs.push_back(parse_job_row(body, lineno, graphs));
  }
  return specs;
}

ParsedJobs parse_job_file_lenient(std::istream& in, std::ostream& warn) {
  ParsedJobs out;
  std::map<std::string, LoadedGraph> graphs;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    try {
      out.specs.push_back(parse_job_row(body, lineno, graphs));
    } catch (const std::exception& e) {
      warn << "warning: " << e.what() << " (row skipped)\n";
      ++out.rows_skipped;
    }
  }
  return out;
}

std::vector<svc::JobSpec> generate_workload(int count, std::uint64_t seed,
                                            double dup_frac) {
  TGP_REQUIRE(count >= 1, "workload must have at least one job");
  TGP_REQUIRE(dup_frac >= 0 && dup_frac <= 1, "dup fraction must be in [0,1]");
  std::vector<svc::JobSpec> specs;
  specs.reserve(static_cast<std::size_t>(count));
  util::Pcg32 rng(seed, 0xba7c4);
  auto vdist = graph::WeightDist::uniform(1, 100);
  auto edist = graph::WeightDist::uniform(1, 100);
  for (int i = 0; i < count; ++i) {
    if (!specs.empty() && rng.coin(dup_frac)) {
      // Repeat an earlier (graph, problem, K); half the time under a
      // different presentation of the same abstract graph.
      const svc::JobSpec& prev = specs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(specs.size()) - 1))];
      svc::JobSpec dup = prev;
      if (rng.coin(0.5)) {
        if (dup.chain)
          dup.chain = std::make_shared<const graph::Chain>(
              graph::reversed_chain(*dup.chain));
        else
          dup.tree = std::make_shared<const graph::Tree>(
              graph::relabel_tree(rng, *dup.tree));
      }
      specs.push_back(std::move(dup));
      continue;
    }
    int n = static_cast<int>(rng.uniform_int(40, 400));
    auto problem = static_cast<svc::Problem>(rng.uniform_int(0, 3));
    double frac = rng.uniform_real(0.02, 0.4);
    if (rng.coin(0.5)) {
      graph::Chain c = graph::random_chain(rng, n, vdist, edist);
      graph::Weight K = c.max_vertex_weight() +
                        frac * (c.total_vertex_weight() -
                                c.max_vertex_weight());
      specs.push_back(svc::JobSpec::for_chain(problem, K, std::move(c)));
    } else {
      graph::Tree t = rng.coin(0.3)
                          ? graph::random_binary_tree(rng, n, vdist, edist)
                          : graph::random_tree(rng, n, vdist, edist);
      graph::Weight K = t.max_vertex_weight() +
                        frac * (t.total_vertex_weight() -
                                t.max_vertex_weight());
      specs.push_back(svc::JobSpec::for_tree(problem, K, std::move(t)));
    }
  }
  return specs;
}

std::string serve_tool_help() {
  return
      "tgp_serve — batch partition service driver\n"
      "\n"
      "usage: tgp_serve (--jobs FILE | --generate N) [--threads N]\n"
      "                 [--cache-mb M] [--queue-cap C] [--seed S]\n"
      "                 [--dup-frac F] [--deadline-us D] [--no-results]\n"
      "                 [--max-inflight N] [--rate-limit R]\n"
      "                 [--cache-dir DIR] [--verify]\n"
      "                 [--trace-out FILE] [--trace-buf N]\n"
      "                 [--metrics-out FILE] [--metrics-format FMT]\n"
      "                 [--stats-interval-ms MS] [--log-level LEVEL]\n"
      "\n"
      "Runs a batch of partition jobs on the multi-threaded service\n"
      "runtime with a canonical-graph memo cache.  The results table\n"
      "(stdout) is deterministic: identical for any --threads value.\n"
      "Metrics and timing go to stderr.\n"
      "\n"
      "Job file: one 'problem,K,source' CSV line per job, where problem\n"
      "is bottleneck|procmin|bandwidth|pipeline; K is a number or 'P%'\n"
      "(percent of the slack above the max task weight); source is\n"
      "file:PATH (tgp-chain/tgp-tree file) or gen:KIND:n=N:seed=S with\n"
      "KIND chain|tree|binary|star.  '#' starts a comment.  A malformed\n"
      "row is skipped with a line-numbered warning on stderr; the rest of\n"
      "the batch still runs.\n"
      "\n"
      "Each results row carries the job's status (ok, invalid_spec,\n"
      "timeout, cancelled, internal_error, overloaded).\n"
      "Exit code: 0 when every job succeeded, 3 when any job failed or\n"
      "any row was skipped, 4 when the batch completed but admission\n"
      "control shed jobs (every failure is 'overloaded'), 2 on usage\n"
      "errors, 1 on fatal errors.\n"
      "\n"
      "  --jobs FILE     job file (see above)\n"
      "  --generate N    synthesize an N-job mixed workload instead\n"
      "  --seed S        seed for --generate (default 42)\n"
      "  --dup-frac F    duplicate fraction for --generate (default 0.5)\n"
      "  --threads N     worker threads (default: hardware concurrency)\n"
      "  --cache-mb M    memo cache budget in MiB, 0 disables (default 64)\n"
      "  --queue-cap C   bounded queue capacity (default 1024)\n"
      "  --deadline-us D per-job deadline in microseconds (default: none)\n"
      "  --no-results    suppress the per-job results table\n"
      "  --max-inflight N      admission cap on jobs in flight (0 = off);\n"
      "                        excess submits settle as 'overloaded'\n"
      "  --rate-limit R        token-bucket admission rate in jobs/sec\n"
      "                        (0 = off); rejects settle as 'overloaded'\n"
      "  --cache-dir DIR       persist the memo cache in DIR (checksummed\n"
      "                        snapshot + journal): a later run over the\n"
      "                        same directory starts warm, and a crashed\n"
      "                        run recovers every record that survived\n"
      "  --verify              independently re-check every result with\n"
      "                        the O(n) verifier (failures quarantine the\n"
      "                        cached entry / fail the job)\n"
      "  --trace-out FILE      record spans, write Chrome trace JSON\n"
      "                        (open in chrome://tracing or Perfetto)\n"
      "  --trace-buf N         trace ring size in events/thread (default\n"
      "                        65536; oldest events drop when full)\n"
      "  --metrics-out FILE    write the final metrics snapshot to FILE\n"
      "  --metrics-format FMT  text | prom | json (default text)\n"
      "  --stats-interval-ms MS  periodic progress line on stderr\n"
      "  --log-level LEVEL     trace|debug|info|warn|error|off (also\n"
      "                        settable via the TGP_LOG env var)\n"
      "\n"
      "Tracing and metrics never touch stdout: the results table stays\n"
      "byte-identical with tracing on or off.\n";
}

int run_serve_tool(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err) {
  std::vector<const char*> argv{"tgp_serve"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  try {
    util::ArgParser parser(static_cast<int>(argv.size()), argv.data());
    parser.describe("jobs", "job file (problem,K,source per line)")
        .describe("generate", "synthesize an N-job workload")
        .describe("seed", "workload seed")
        .describe("dup-frac", "duplicate fraction for --generate")
        .describe("threads", "worker threads")
        .describe("cache-mb", "cache budget in MiB (0 disables)")
        .describe("queue-cap", "job queue capacity")
        .describe("deadline-us", "per-job deadline in microseconds")
        .describe("no-results", "suppress the results table")
        .describe("max-inflight", "admission cap on jobs in flight")
        .describe("rate-limit", "admission rate limit in jobs/sec")
        .describe("cache-dir", "persist the cache here across runs")
        .describe("verify", "independently re-check every result")
        .describe("trace-out", "write Chrome trace JSON to FILE")
        .describe("trace-buf", "trace ring size in events per thread")
        .describe("metrics-out", "write the metrics snapshot to FILE")
        .describe("metrics-format", "metrics format: text|prom|json")
        .describe("stats-interval-ms", "periodic stats line interval")
        .describe("log-level", "stderr log threshold");
    if (parser.has("help")) {
      out << serve_tool_help();
      return 0;
    }
    parser.check_unknown();

    if (parser.has("log-level")) {
      util::LogLevel level;
      std::string name = parser.get("log-level", "info");
      if (!util::parse_log_level(name, level)) {
        err << "error: unknown log level '" << name
            << "' (want trace|debug|info|warn|error|off)\n";
        return 2;
      }
      util::set_log_level(level);
    }

    std::string metrics_format = parser.get("metrics-format", "text");
    if (metrics_format != "text" && metrics_format != "prom" &&
        metrics_format != "json") {
      err << "error: unknown metrics format '" << metrics_format
          << "' (want text|prom|json)\n";
      return 2;
    }

    const std::string trace_path = parser.get("trace-out", "");
    const bool tracing = !trace_path.empty();
    if (tracing) {
      obs::trace::set_ring_capacity(static_cast<std::size_t>(
          parser.get_int("trace-buf", 65536)));
      obs::trace::set_thread_name("main");
      obs::trace::clear();
      obs::trace::set_enabled(true);
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
    config.verify_results = parser.get_bool("verify", false);

    double deadline_us = parser.get_double("deadline-us", 0);
    if (deadline_us > 0)
      for (svc::JobSpec& s : specs) s.deadline_micros = deadline_us;

    // Capture per-job echo columns before the specs move into the service.
    std::vector<JobEcho> echo = make_echo(specs);

    svc::PartitionService service(config);
    double wall_seconds = 0;
    std::vector<svc::JobResult> results;
    {
      std::unique_ptr<StatsReporter> reporter;
      double stats_ms = parser.get_double("stats-interval-ms", 0);
      if (stats_ms > 0)
        reporter = std::make_unique<StatsReporter>(service, err, stats_ms);
      util::ScopedTimer t(wall_seconds, util::ScopedTimer::Unit::kSeconds);
      results = service.run_batch(std::move(specs));
    }
    if (tracing) {
      service.shutdown();  // join workers so every ring holds final spans
      obs::trace::set_enabled(false);
      obs::trace::TraceSnapshot snap = obs::trace::snapshot();
      std::ofstream tf(trace_path);
      if (!tf.good()) {
        err << "error: cannot write trace file '" << trace_path << "'\n";
        return 1;
      }
      obs::ChromeTraceMeta meta;
      meta.process_name = "serve";
      meta.epoch_unix_us = obs::trace::epoch_unix_us();
      obs::write_chrome_trace(tf, snap, meta);
      err << "trace: " << snap.recorded << " events ("
          << snap.dropped << " dropped) -> " << trace_path << "\n";
    }

    if (!parser.get_bool("no-results", false))
      out << render_results_table(echo, results);

    if (!config.cache_dir.empty()) {
      // The batch is idle (run_batch waited), so the journal is final:
      // flush it and mint the clean marker for the next warm start.
      const std::size_t flushed = service.flush_durable();
      err << "durable: flushed " << flushed << " entries to "
          << config.cache_dir << "\n";
    }

    obs::MetricsRegistry metrics;
    service.metrics().record(metrics);
    const std::string report = obs::render_text(metrics, "service metrics");
    err << report;
    if (parser.has("metrics-out")) {
      const std::string metrics_path = parser.get("metrics-out", "");
      std::ofstream mf(metrics_path);
      if (!mf.good()) {
        err << "error: cannot write metrics file '" << metrics_path << "'\n";
        return 1;
      }
      if (metrics_format == "prom")
        mf << obs::render_prometheus(metrics);
      else if (metrics_format == "json")
        mf << obs::render_json(metrics);
      else
        mf << report;
    }
    err << "wall time: " << util::fmt(wall_seconds, 3) << " s, throughput: "
        << util::fmt(static_cast<double>(results.size()) /
                         std::max(wall_seconds, 1e-9),
                     1)
        << " jobs/s\n";
    return batch_exit_report(results, rows_skipped, err);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    err << "batch aborted before completion\n";
    return 1;
  }
}

}  // namespace tgp::tools
