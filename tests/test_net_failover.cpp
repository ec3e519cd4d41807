// Fleet failover end to end: an in-process router with active health
// checking over two loopback backend shards.  Kills a shard mid-batch
// and checks every job still settles (hand-off to the ring successor),
// restarts it and checks it drains back in (recovery), and verifies the
// whole-fleet-down path rejects instead of hanging.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "graph/fingerprint.hpp"
#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/shard.hpp"
#include "svc/service.hpp"
#include "tools/serve_tool.hpp"

namespace tgp::net {
namespace {

struct Shard {
  std::unique_ptr<svc::PartitionService> service;
  std::unique_ptr<Backend> backend;
  std::unique_ptr<Server> server;
  std::thread loop;

  /// port == 0: ephemeral.  Restarts pass the old port back in.
  Shard(std::uint32_t index, std::uint32_t count, std::uint16_t port) {
    svc::ServiceConfig cfg;
    cfg.threads = 1;
    service = std::make_unique<svc::PartitionService>(cfg);
    backend = std::make_unique<Backend>(
        *service, Backend::Config{.shard_index = index, .shard_count = count});
    Server::Config sc;
    sc.port = port;
    server = std::make_unique<Server>(sc, *backend);
    backend->attach(*server);
    loop = std::thread([this] { server->run(); });
  }

  void shutdown() {
    if (!loop.joinable()) return;
    server->stop();
    loop.join();
    service->shutdown();
  }

  ~Shard() { shutdown(); }
};

class FailoverTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kShards = 2;

  void start_fleet() {
    for (std::uint32_t s = 0; s < kShards; ++s)
      shards_.push_back(std::make_unique<Shard>(s, kShards, 0));

    Router::Config rc;
    rc.health.fail_threshold = 2;
    rc.health.down_cooldown_us = 30'000;
    rc.health.recover_probes = 2;
    rc.probe_timeout_us = 100'000;
    rc.connect_timeout_ms = 100;
    router_ = std::make_unique<Router>(rc);
    Server::Config sc;
    sc.tick_interval_ms = 5;  // active probing on
    router_server_ = std::make_unique<Server>(sc, *router_);
    router_->attach(*router_server_);
    std::vector<std::pair<std::string, std::uint16_t>> addrs;
    for (auto& sh : shards_)
      addrs.emplace_back("127.0.0.1", sh->server->port());
    router_->connect_backends(addrs);
    router_loop_ = std::thread([this] { router_server_->run(); });
  }

  void stop_router() {
    if (router_loop_.joinable()) {
      router_server_->stop();
      router_loop_.join();
    }
  }

  void TearDown() override {
    stop_router();
    for (auto& sh : shards_) sh->shutdown();
  }

  std::uint16_t router_port() const { return router_server_->port(); }

  static std::uint32_t owner_of(const svc::JobSpec& spec) {
    HashRing ring(kShards);
    graph::Fingerprint fp = spec.is_chain()
                                ? graph::chain_fingerprint(*spec.chain)
                                : graph::tree_fingerprint(*spec.tree);
    return ring.owner(fp);
  }

  static std::vector<SubmitRequest> to_requests(
      const std::vector<svc::JobSpec>& specs) {
    std::vector<SubmitRequest> requests;
    for (const svc::JobSpec& s : specs) {
      SubmitRequest req;
      req.spec = s;
      requests.push_back(std::move(req));
    }
    return requests;
  }

  obs::MetricsRegistry fetch_router_metrics() {
    Client probe("127.0.0.1", router_port());
    return probe.fetch_metrics();
  }

  /// Poll the router's own metrics endpoint until the gauge
  /// tgp_shard_health{shard="S",state="NAME"} reads 1 (or fail after
  /// ~5s).  Goes over the wire so no off-loop-thread state is touched.
  void wait_for_state(std::uint32_t shard, const char* name) {
    const obs::Labels series{{"shard", std::to_string(shard)},
                             {"state", name}};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      Client probe("127.0.0.1", router_port());
      if (probe.fetch_metrics().value("tgp_shard_health", series) == 1.0)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "shard " << shard << " never reached state " << name;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<Server> router_server_;
  std::thread router_loop_;
};

TEST_F(FailoverTest, DeadShardsJobsRerouteToTheSuccessor) {
  start_fleet();
  std::vector<svc::JobSpec> specs = tools::generate_workload(60, 31, 0);
  std::map<std::uint32_t, int> per_shard;
  for (const svc::JobSpec& s : specs) ++per_shard[owner_of(s)];
  ASSERT_GT(per_shard[0], 0);
  ASSERT_GT(per_shard[1], 0);

  shards_[1]->shutdown();  // shard 1 dies before the batch

  Client client("127.0.0.1", router_port());
  std::vector<svc::JobResult> results = client.run_batch(to_requests(specs));
  ASSERT_EQ(results.size(), specs.size());
  // Every job succeeds: shard 1's keys detour to the ring successor.
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_TRUE(results[i].ok) << "job " << i << ": " << results[i].error;

  wait_for_state(1, "down");
  stop_router();
  const Router::Stats s = router_->stats();
  EXPECT_EQ(s.returned, specs.size());
  EXPECT_GE(s.failovers, 1u);
  // Each shard-1 job was rerouted at dispatch or, if it raced the close,
  // handed off in flight — either way it moved exactly once.
  EXPECT_GE(s.requests_rerouted, static_cast<std::uint64_t>(per_shard[1]));
}

TEST_F(FailoverTest, MidBatchKillStillSettlesEveryJob) {
  start_fleet();
  std::vector<svc::JobSpec> specs = tools::generate_workload(120, 31, 0);

  // Kill shard 1 while the batch is (likely) in flight.  Whatever the
  // interleaving — before dispatch, in flight, or already answered —
  // every job must settle exactly once with a terminal status.
  std::thread killer([&] { shards_[1]->shutdown(); });
  Client client("127.0.0.1", router_port());
  std::vector<svc::JobResult> results = client.run_batch(to_requests(specs));
  killer.join();

  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_TRUE(results[i].ok) << "job " << i << ": " << results[i].error;

  wait_for_state(1, "down");
  stop_router();
  const Router::Stats s = router_->stats();
  EXPECT_EQ(s.returned, specs.size());
  EXPECT_GE(s.failovers, 1u);
}

TEST_F(FailoverTest, RestartedShardDrainsBackIn) {
  start_fleet();
  const std::uint16_t port1 = shards_[1]->server->port();

  shards_[1]->shutdown();
  wait_for_state(1, "down");

  // While down, traffic keeps flowing (all of it to shard 0).
  std::vector<svc::JobSpec> specs = tools::generate_workload(20, 7, 0);
  Client during("127.0.0.1", router_port());
  for (const svc::JobResult& r : during.run_batch(to_requests(specs)))
    EXPECT_TRUE(r.ok) << r.error;

  // Restart on the same port; the router reconnects after its cooldown,
  // probes it through recovering, and marks it up.
  shards_[1] = std::make_unique<Shard>(1, kShards, port1);
  wait_for_state(1, "up");

  Client after("127.0.0.1", router_port());
  for (const svc::JobResult& r : after.run_batch(to_requests(specs)))
    EXPECT_TRUE(r.ok) << r.error;

  // Read the counters over the wire while the loop is live: stopping
  // the router closes its backend connections, which itself marks every
  // shard down (an in-process stop must look like a process exit).
  const obs::MetricsRegistry metrics = fetch_router_metrics();
  EXPECT_GE(metrics.value("tgp_router_reconnects_total").value_or(0), 1);
  EXPECT_GE(metrics.value("tgp_router_recoveries_total").value_or(0), 1);
  EXPECT_EQ(metrics.value("tgp_router_backends_up"), kShards);
}

TEST_F(FailoverTest, WholeFleetDownRejectsInsteadOfHanging) {
  start_fleet();
  shards_[0]->shutdown();
  shards_[1]->shutdown();
  wait_for_state(0, "down");
  wait_for_state(1, "down");

  std::vector<svc::JobSpec> specs = tools::generate_workload(10, 3, 0);
  Client client("127.0.0.1", router_port());
  for (const svc::JobResult& r : client.run_batch(to_requests(specs))) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, svc::JobStatus::kInternalError);
    EXPECT_NE(r.error.find("no serving shard"), std::string::npos) << r.error;
  }
}

}  // namespace
}  // namespace tgp::net
