// The tgp_served / tgp_client tool engines: help and usage-error
// contracts, the idle exit of a probing router, and the headline
// equivalence — a tgp_client batch against a live in-process backend
// renders byte-identical stdout to the same batch through the tgp_serve
// engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <sstream>
#include <thread>

#include "net/backend.hpp"
#include "net/server.hpp"
#include "svc/service.hpp"
#include "tools/client_tool.hpp"
#include "tools/serve_tool.hpp"
#include "tools/served_tool.hpp"

namespace tgp::tools {
namespace {

std::vector<std::string> args(std::initializer_list<std::string> a) {
  return {a};
}

int run_client(std::vector<std::string> a, std::string* out_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  int rc = run_client_tool(a, out, err);
  if (out_text != nullptr) *out_text = out.str();
  return rc;
}

TEST(ClientTool, HelpAndUsageErrors) {
  std::string help;
  EXPECT_EQ(run_client(args({"--help"}), &help), 0);
  EXPECT_NE(help.find("--connect"), std::string::npos);

  // Missing --connect or workload: checked usage errors (2).  Malformed
  // addresses and unknown flags throw and exit 1, matching tgp_serve's
  // convention — either way, nonzero and a diagnostic, never a crash.
  EXPECT_EQ(run_client(args({"--generate", "3"})), 2);
  EXPECT_EQ(run_client(args({"--connect", "127.0.0.1:1"})), 2);
  EXPECT_EQ(run_client(args({"--connect", "no-port", "--generate", "3"})), 1);
  EXPECT_EQ(run_client(args({"--connect", "127.0.0.1:0x", "--generate", "3"})),
            1);
  EXPECT_EQ(run_client(args({"--connect", "127.0.0.1:1", "--generate", "3",
                             "--frobnicate"})),
            1);
}

TEST(ClientTool, ConnectionRefusedIsFatalNotUsage) {
  // Port 1 on loopback: nothing listens there in the test environment.
  std::ostringstream out;
  std::ostringstream err;
  int rc = run_client_tool(args({"--connect", "127.0.0.1:1", "--generate",
                                 "2"}),
                           out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.str().find("batch aborted before completion"),
            std::string::npos);
}

TEST(ServedTool, HelpAndUsageErrors) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_served_tool(args({"--help"}), out, err), 0);
  EXPECT_NE(out.str().find("--route"), std::string::npos);

  auto rc = [&](std::initializer_list<std::string> a) {
    std::ostringstream o;
    std::ostringstream e;
    return run_served_tool(args(a), o, e);
  };
  // Shard index out of range and an empty route list are checked usage
  // errors (2); malformed addresses and unknown flags throw (1).
  EXPECT_EQ(rc({"--shard-index", "2", "--shard-count", "2"}), 2);
  EXPECT_EQ(rc({"--route", ""}), 2);
  EXPECT_EQ(rc({"--route", "localhost"}), 1);
  EXPECT_EQ(rc({"--route", "127.0.0.1:99999"}), 1);
  EXPECT_EQ(rc({"--frobnicate"}), 1);
}

TEST(ServedTool, ProbingRouterStillStopsWhenIdle) {
  // A backend for the router to probe and poll.
  svc::ServiceConfig cfg;
  cfg.threads = 1;
  svc::PartitionService service(cfg);
  net::Backend backend(service, net::Backend::Config{});
  net::Server server(net::Server::Config{}, backend);
  backend.attach(server);
  std::thread loop([&] { server.run(); });

  // Pings every tick and a metrics poll every tick keep frames flowing
  // on the router's outbound links; with no client it is still idle.
  std::atomic<bool> done{false};
  int rc = -1;
  std::ostringstream out;
  std::ostringstream err;
  std::thread router([&] {
    rc = run_served_tool(
        args({"--port", "0", "--route",
              "127.0.0.1:" + std::to_string(server.port()), "--tick-ms", "20",
              "--metrics-every-ticks", "1", "--stop-after-idle-ms", "300"}),
        out, err);
    done.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const bool stopped_itself = done.load();
  // Otherwise stop it through the tool's own SIGTERM handler, so the
  // test fails instead of hanging.
  if (!stopped_itself) std::raise(SIGTERM);
  router.join();
  server.stop();
  loop.join();
  service.shutdown();

  EXPECT_TRUE(stopped_itself) << "router ignored --stop-after-idle-ms";
  EXPECT_EQ(rc, 0) << err.str();
}

TEST(NetTools, ClientStdoutIsByteIdenticalToServeEngine) {
  // An in-process backend on an ephemeral port…
  svc::ServiceConfig cfg;
  cfg.threads = 1;
  svc::PartitionService service(cfg);
  net::Backend backend(service, net::Backend::Config{});
  net::Server server(net::Server::Config{}, backend);
  backend.attach(server);
  std::thread loop([&] { server.run(); });

  // …driven by the client engine, against the serve engine run directly.
  std::string address = "127.0.0.1:" + std::to_string(server.port());
  std::string via_socket;
  int client_rc = run_client(
      args({"--connect", address, "--generate", "25", "--seed", "99"}),
      &via_socket);

  std::ostringstream serve_out;
  std::ostringstream serve_err;
  int serve_rc = run_serve_tool(
      args({"--generate", "25", "--seed", "99", "--threads", "1"}), serve_out,
      serve_err);

  server.stop();
  loop.join();
  service.shutdown();

  EXPECT_EQ(client_rc, serve_rc);
  EXPECT_EQ(via_socket, serve_out.str());
  EXPECT_NE(via_socket.find("status"), std::string::npos);
}

}  // namespace
}  // namespace tgp::tools
