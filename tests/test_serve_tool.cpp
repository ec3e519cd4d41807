// tgp_serve engine (tools/serve_tool.hpp): job-file parsing, workload
// synthesis, and end-to-end runs with deterministic stdout.
#include "tools/serve_tool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "svc/service.hpp"
#include "tools/trace_tool.hpp"

namespace tgp::tools {
namespace {

std::vector<std::string> args(std::initializer_list<std::string> a) {
  return {a};
}

TEST(ParseJobFile, ParsesProblemsKindsAndComments) {
  std::istringstream in(
      "# a comment line\n"
      "bandwidth, 40, gen:chain:n=12:seed=7\n"
      "\n"
      "procmin, 50%, gen:tree:n=9:seed=3\n"
      "bottleneck, 30%, gen:binary:n=15:seed=1\n"
      "pipeline, 25%, gen:star:n=8:seed=2\n");
  std::vector<svc::JobSpec> specs = parse_job_file(in);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].problem, svc::Problem::kBandwidth);
  EXPECT_TRUE(specs[0].is_chain());
  EXPECT_EQ(specs[0].n(), 12);
  EXPECT_EQ(specs[0].K, 40.0);
  EXPECT_EQ(specs[1].problem, svc::Problem::kProcMin);
  EXPECT_FALSE(specs[1].is_chain());
  EXPECT_EQ(specs[1].n(), 9);
  EXPECT_EQ(specs[2].problem, svc::Problem::kBottleneck);
  EXPECT_EQ(specs[2].n(), 15);
  EXPECT_EQ(specs[3].problem, svc::Problem::kPipeline);
  EXPECT_EQ(specs[3].n(), 8);
}

TEST(ParseJobFile, PercentKExceedsMaxVertexWeight) {
  std::istringstream in("procmin, 0%, gen:tree:n=20:seed=11\n");
  std::vector<svc::JobSpec> specs = parse_job_file(in);
  ASSERT_EQ(specs.size(), 1u);
  // 0% slack means K == max vertex weight: still feasible for proc_min.
  EXPECT_GE(specs[0].K, specs[0].tree->max_vertex_weight());
  EXPECT_TRUE(svc::execute_job_captured(specs[0]).ok);
}

TEST(ParseJobFile, IdenticalSourcesShareOneGraph) {
  std::istringstream in(
      "bandwidth, 40%, gen:chain:n=30:seed=5\n"
      "procmin, 60%, gen:chain:n=30:seed=5\n"
      "bandwidth, 40%, gen:chain:n=30:seed=6\n");
  std::vector<svc::JobSpec> specs = parse_job_file(in);
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].chain.get(), specs[1].chain.get());
  EXPECT_NE(specs[0].chain.get(), specs[2].chain.get());
}

TEST(ParseJobFile, RejectsMalformedLines) {
  {
    std::istringstream in("frobnicate, 10, gen:chain:n=5:seed=1\n");
    EXPECT_THROW(parse_job_file(in), std::invalid_argument);
  }
  {
    std::istringstream in("bandwidth, 10\n");
    EXPECT_THROW(parse_job_file(in), std::invalid_argument);
  }
  {
    std::istringstream in("bandwidth, 10, gen:moebius:n=5:seed=1\n");
    EXPECT_THROW(parse_job_file(in), std::invalid_argument);
  }
  {
    std::istringstream in("bandwidth, tall, gen:chain:n=5:seed=1\n");
    EXPECT_THROW(parse_job_file(in), std::invalid_argument);
  }
}

TEST(GenerateWorkload, HonorsCountAndProducesRunnableJobs) {
  std::vector<svc::JobSpec> specs = generate_workload(60, 99, 0.4);
  ASSERT_EQ(specs.size(), 60u);
  for (const svc::JobSpec& s : specs)
    EXPECT_TRUE(svc::execute_job_captured(s).ok);
}

TEST(GenerateWorkload, IsDeterministicPerSeed) {
  std::vector<svc::JobSpec> a = generate_workload(25, 7, 0.5);
  std::vector<svc::JobSpec> b = generate_workload(25, 7, 0.5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].problem, b[i].problem);
    EXPECT_EQ(a[i].K, b[i].K);
    EXPECT_EQ(a[i].n(), b[i].n());
  }
}

TEST(GenerateWorkload, DuplicateFractionDrivesCacheHits) {
  std::vector<svc::JobSpec> specs = generate_workload(200, 12345, 0.9);
  svc::ServiceConfig config;
  config.threads = 2;
  svc::PartitionService service(config);
  service.run_batch(specs);
  EXPECT_GE(service.metrics().cache.hit_rate(), 0.7);
}

TEST(RunServeTool, HelpAndUnknownFlag) {
  std::ostringstream out, err;
  EXPECT_EQ(run_serve_tool(args({"--help"}), out, err), 0);
  EXPECT_NE(out.str().find("tgp_serve"), std::string::npos);
  std::ostringstream out2, err2;
  EXPECT_NE(run_serve_tool(args({"--frobnicate"}), out2, err2), 0);
}

TEST(RunServeTool, GeneratedBatchOutputIsThreadCountInvariant) {
  std::ostringstream out1, err1, out8, err8;
  std::vector<std::string> base = {"--generate", "80", "--seed", "21",
                                   "--dup-frac", "0.5"};
  std::vector<std::string> a1 = base;
  a1.push_back("--threads");
  a1.push_back("1");
  std::vector<std::string> a8 = base;
  a8.push_back("--threads");
  a8.push_back("8");
  ASSERT_EQ(run_serve_tool(a1, out1, err1), 0);
  ASSERT_EQ(run_serve_tool(a8, out8, err8), 0);
  EXPECT_EQ(out1.str(), out8.str());
  EXPECT_FALSE(out1.str().empty());
}

// tgp_serve's stdout carries every result row, so a change to tree or
// chain canonicalisation, the cache key or the mapping of cuts back
// shows here.  The FNV-1a digest of the 502 lines (md5
// a1a5dbdf8562d3d503a1c2f690f54d9c) was captured from the build before
// trees were canonicalised in one BFS; only a deliberate output change
// may update it.
TEST(RunServeTool, GeneratedBatchStdoutIsPinned) {
  std::ostringstream out, err;
  ASSERT_EQ(run_serve_tool(args({"--generate", "500", "--seed", "7",
                                 "--dup-frac", "0.5", "--threads", "2"}),
                           out, err),
            0)
      << err.str();
  const std::string text = out.str();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 502);
  EXPECT_EQ(h, 0x85c00da0d2b5829aull);
}

TEST(RunServeTool, JobsFlagReadsFileAndPrintsRows) {
  std::string path = testing::TempDir() + "/tgp_serve_jobs.csv";
  {
    std::ofstream f(path);
    f << "bandwidth, 40%, gen:chain:n=16:seed=4\n"
         "procmin, 50%, gen:tree:n=12:seed=4\n";
  }
  std::ostringstream out, err;
  ASSERT_EQ(run_serve_tool(args({"--jobs", path, "--threads", "2"}), out, err),
            0);
  EXPECT_NE(out.str().find("bandwidth"), std::string::npos);
  EXPECT_NE(out.str().find("procmin"), std::string::npos);
  EXPECT_NE(err.str().find("service metrics"), std::string::npos);
}

TEST(ParseJobFile, LenientVariantSkipsBadRowsWithLineNumbers) {
  std::istringstream in(
      "bandwidth, 40, gen:chain:n=12:seed=7\n"
      "frobnicate, 10, gen:chain:n=5:seed=1\n"
      "procmin, 50%, gen:tree:n=9:seed=3\n"
      "bandwidth, 10\n");
  std::ostringstream warn;
  ParsedJobs parsed = parse_job_file_lenient(in, warn);
  ASSERT_EQ(parsed.specs.size(), 2u);
  EXPECT_EQ(parsed.rows_skipped, 2);
  EXPECT_EQ(parsed.specs[0].problem, svc::Problem::kBandwidth);
  EXPECT_EQ(parsed.specs[1].problem, svc::Problem::kProcMin);
  // Warnings name the offending lines (1-based, counting comments).
  EXPECT_NE(warn.str().find("line 2"), std::string::npos);
  EXPECT_NE(warn.str().find("line 4"), std::string::npos);
  EXPECT_EQ(warn.str().find("line 1"), std::string::npos);
}

TEST(RunServeTool, BadRowIsSkippedBatchStillRunsExitCode3) {
  std::string path = testing::TempDir() + "/tgp_serve_badrow.csv";
  {
    std::ofstream f(path);
    f << "bandwidth, 40%, gen:chain:n=16:seed=4\n"
         "frobnicate, 10, gen:chain:n=5:seed=1\n"
         "procmin, 50%, gen:tree:n=12:seed=4\n";
  }
  std::ostringstream out, err;
  EXPECT_EQ(run_serve_tool(args({"--jobs", path, "--threads", "1"}), out, err),
            3);
  // The good rows still produced results...
  EXPECT_NE(out.str().find("bandwidth"), std::string::npos);
  EXPECT_NE(out.str().find("procmin"), std::string::npos);
  // ...and the bad one left a line-numbered warning.
  EXPECT_NE(err.str().find("line 2"), std::string::npos);
  EXPECT_NE(err.str().find("row skipped"), std::string::npos);
}

TEST(RunServeTool, FailedJobYieldsStatusColumnAndExitCode3) {
  // An explicit K of 1 is far below the max vertex weight: the job fails
  // validation and must surface as invalid_spec in the results table.
  std::string path = testing::TempDir() + "/tgp_serve_badjob.csv";
  {
    std::ofstream f(path);
    f << "procmin, 1, gen:tree:n=12:seed=4\n"
         "procmin, 50%, gen:tree:n=12:seed=4\n";
  }
  std::ostringstream out, err;
  EXPECT_EQ(run_serve_tool(args({"--jobs", path, "--threads", "1"}), out, err),
            3);
  EXPECT_NE(out.str().find("invalid_spec"), std::string::npos);
  EXPECT_NE(err.str().find("1 job(s) failed"), std::string::npos);
}

TEST(RunServeTool, TinyDeadlineTimesJobsOut) {
  std::ostringstream out, err;
  std::vector<std::string> a = {"--generate", "6",          "--seed",
                                "3",          "--threads",  "1",
                                "--deadline-us", "0.5"};
  EXPECT_EQ(run_serve_tool(a, out, err), 3);
  EXPECT_NE(out.str().find("timeout"), std::string::npos);
}

TEST(RunServeTool, MissingJobFileFails) {
  std::ostringstream out, err;
  EXPECT_NE(run_serve_tool(args({"--jobs", "/nonexistent/x.csv"}), out, err),
            0);
  EXPECT_FALSE(err.str().empty());
}

// --- Observability flags ----------------------------------------------------

TEST(RunServeTool, TracingLeavesStdoutByteIdentical) {
  // The determinism contract: --trace-out must not perturb the results
  // table — tracing and metrics go to files and stderr only.
  std::string trace_path = testing::TempDir() + "/tgp_serve_det_trace.json";
  std::vector<std::string> base = {"--generate", "50", "--seed", "33",
                                   "--threads", "2"};
  std::ostringstream plain_out, plain_err, traced_out, traced_err;
  ASSERT_EQ(run_serve_tool(base, plain_out, plain_err), 0);
  std::vector<std::string> traced = base;
  traced.push_back("--trace-out");
  traced.push_back(trace_path);
  ASSERT_EQ(run_serve_tool(traced, traced_out, traced_err), 0);
  EXPECT_EQ(plain_out.str(), traced_out.str());
  EXPECT_FALSE(plain_out.str().empty());
  // ... and the trace landed, parseable, with the expected span phases.
  std::ifstream f(trace_path);
  ASSERT_TRUE(f.good());
  ParsedTrace t = parse_chrome_trace(f);
  EXPECT_GT(t.events.size(), 0u);
  bool saw_job = false, saw_queue_wait = false, saw_solve = false;
  for (const DumpEvent& ev : t.events) {
    if (ev.cat != "svc") continue;
    if (ev.name == "job") saw_job = true;
    if (ev.name == "queue.wait") saw_queue_wait = true;
    if (ev.name == "solve") saw_solve = true;
  }
  EXPECT_TRUE(saw_job);
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_solve);
}

TEST(RunServeTool, MetricsOutWritesPromAndJsonFiles) {
  std::string prom_path = testing::TempDir() + "/tgp_serve_metrics.prom";
  std::string json_path = testing::TempDir() + "/tgp_serve_metrics.json";
  {
    std::ostringstream out, err;
    ASSERT_EQ(run_serve_tool(args({"--generate", "30", "--threads", "2",
                                   "--metrics-out", prom_path,
                                   "--metrics-format", "prom"}),
                             out, err),
              0);
    std::ifstream f(prom_path);
    std::stringstream ss;
    ss << f.rdbuf();
    std::string s = ss.str();
    EXPECT_NE(s.find("# TYPE tgp_jobs_submitted_total counter"),
              std::string::npos);
    EXPECT_NE(s.find("tgp_jobs_submitted_total 30"), std::string::npos);
    EXPECT_NE(s.find("le=\"+Inf\""), std::string::npos);
  }
  {
    std::ostringstream out, err;
    ASSERT_EQ(run_serve_tool(args({"--generate", "30", "--threads", "2",
                                   "--metrics-out", json_path,
                                   "--metrics-format", "json"}),
                             out, err),
              0);
    std::ifstream f(json_path);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find("\"tgp_jobs_submitted_total\":{\"type\":"
                            "\"counter\",\"help\":\"Jobs accepted by "
                            "submit()\",\"samples\":[{\"labels\":{},"
                            "\"value\":30}]}"),
              std::string::npos);
    EXPECT_NE(ss.str().find("\"tgp_solver_oracle_calls_total\""),
              std::string::npos);
  }
  // Unknown format is a usage error.
  std::ostringstream out, err;
  EXPECT_EQ(run_serve_tool(args({"--generate", "5", "--metrics-out",
                                 prom_path, "--metrics-format", "xml"}),
                           out, err),
            2);
}

TEST(RunServeTool, LogLevelFlagValidatesItsArgument) {
  {
    std::ostringstream out, err;
    EXPECT_EQ(run_serve_tool(args({"--generate", "5", "--threads", "1",
                                   "--log-level", "debug"}),
                             out, err),
              0);
  }
  {
    std::ostringstream out, err;
    EXPECT_EQ(run_serve_tool(args({"--generate", "5", "--log-level",
                                   "shouty"}),
                             out, err),
              2);
    EXPECT_NE(err.str().find("log level"), std::string::npos);
  }
}

}  // namespace
}  // namespace tgp::tools
