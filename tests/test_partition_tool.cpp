// End-to-end tests for the tgp_partition command-line tool.
#include "tools/partition_tool.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"

namespace tgp::tools {
namespace {

struct ToolRun {
  int code;
  std::string out;
  std::string err;
};

ToolRun run(std::vector<std::string> args) {
  std::ostringstream out, err;
  int code = run_partition_tool(args, out, err);
  return {code, out.str(), err.str()};
}

class PartitionToolTest : public testing::Test {
 protected:
  void SetUp() override {
    util::Pcg32 rng(99);
    // ctest runs each test as its own process, concurrently under -j:
    // per-test file names keep one test's TearDown from deleting
    // another's input.
    const std::string stem =
        testing::TempDir() + "/tool_" +
        testing::UnitTest::GetInstance()->current_test_info()->name();
    chain_path_ = stem + "_chain.txt";
    tree_path_ = stem + "_tree.txt";
    graph::save_chain_file(
        chain_path_,
        graph::random_chain(rng, 24, graph::WeightDist::uniform(1, 5),
                            graph::WeightDist::uniform(1, 9)));
    graph::save_tree_file(
        tree_path_,
        graph::random_tree(rng, 24, graph::WeightDist::uniform(1, 5),
                           graph::WeightDist::uniform(1, 9)));
  }
  void TearDown() override {
    std::remove(chain_path_.c_str());
    std::remove(tree_path_.c_str());
  }
  std::string chain_path_;
  std::string tree_path_;
};

TEST_F(PartitionToolTest, HelpPrintsUsage) {
  auto r = run({"--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage"), std::string::npos);
}

TEST_F(PartitionToolTest, ChainBandwidth) {
  auto r = run({"--input", chain_path_, "--algorithm", "bandwidth", "--k",
                "12"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("chain with 24 tasks"), std::string::npos);
  EXPECT_NE(r.out.find("cut weight:"), std::string::npos);
  EXPECT_NE(r.out.find("prime subpaths"), std::string::npos);
}

TEST_F(PartitionToolTest, ChainBottleneckAndProcmin) {
  auto b = run({"--input", chain_path_, "--algorithm", "bottleneck", "--k",
                "12"});
  EXPECT_EQ(b.code, 0) << b.err;
  EXPECT_NE(b.out.find("bottleneck edge weight:"), std::string::npos);
  auto p = run({"--input", chain_path_, "--algorithm", "procmin", "--k",
                "12"});
  EXPECT_EQ(p.code, 0) << p.err;
  EXPECT_NE(p.out.find("processors needed:"), std::string::npos);
}

TEST_F(PartitionToolTest, ChainDual) {
  auto r = run({"--input", chain_path_, "--algorithm", "dual",
                "--processors", "4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("minimum bound K*:"), std::string::npos);
}

TEST_F(PartitionToolTest, TreeAlgorithms) {
  for (const char* algo :
       {"bandwidth", "bottleneck", "procmin", "pipeline"}) {
    auto r = run({"--input", tree_path_, "--algorithm", algo, "--k", "15"});
    EXPECT_EQ(r.code, 0) << algo << ": " << r.err;
    EXPECT_NE(r.out.find("tree with 24 tasks"), std::string::npos) << algo;
  }
}

TEST_F(PartitionToolTest, TreeHostSatellite) {
  auto r = run({"--input", tree_path_, "--algorithm", "hostsat",
                "--satellites", "3", "--root", "0"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("host load:"), std::string::npos);
}

TEST_F(PartitionToolTest, MissingFlagsAreReported) {
  auto no_input = run({"--algorithm", "bandwidth", "--k", "5"});
  EXPECT_EQ(no_input.code, 2);
  EXPECT_NE(no_input.err.find("--input"), std::string::npos);
  auto no_algo = run({"--input", chain_path_, "--k", "5"});
  EXPECT_EQ(no_algo.code, 2);
  auto no_k = run({"--input", chain_path_, "--algorithm", "bandwidth"});
  EXPECT_EQ(no_k.code, 2);
  EXPECT_NE(no_k.err.find("--k"), std::string::npos);
  auto no_procs = run({"--input", chain_path_, "--algorithm", "dual"});
  EXPECT_EQ(no_procs.code, 2);
}

TEST_F(PartitionToolTest, UnknownAlgorithmAndFlags) {
  auto bad_algo = run({"--input", chain_path_, "--algorithm", "magic",
                       "--k", "5"});
  EXPECT_EQ(bad_algo.code, 2);
  EXPECT_NE(bad_algo.err.find("unknown chain algorithm"),
            std::string::npos);
  auto bad_flag = run({"--input", chain_path_, "--algorithm", "bandwidth",
                       "--k", "5", "--frobnicate", "1"});
  EXPECT_EQ(bad_flag.code, 1);  // argparse throws -> reported as error
  EXPECT_NE(bad_flag.err.find("frobnicate"), std::string::npos);
}

TEST_F(PartitionToolTest, MissingAndMalformedFiles) {
  auto missing = run({"--input", "/no/such/file", "--algorithm",
                      "bandwidth", "--k", "5"});
  EXPECT_EQ(missing.code, 2);
  std::string junk = testing::TempDir() + "/tool_junk.txt";
  {
    std::ofstream f(junk);
    f << "hello world\n";
  }
  auto bad = run({"--input", junk, "--algorithm", "bandwidth", "--k", "5"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("unrecognized file format"), std::string::npos);
  std::remove(junk.c_str());
}

TEST_F(PartitionToolTest, InfeasibleKReportedAsError) {
  // K below the max vertex weight: the algorithm throws; exit code 1.
  auto r = run({"--input", chain_path_, "--algorithm", "bandwidth", "--k",
                "0.5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

}  // namespace
}  // namespace tgp::tools
