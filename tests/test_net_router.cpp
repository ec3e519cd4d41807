// The shard router layer: consistent-hash ring properties, per-tenant
// quota and fair queuing, and a full in-process fleet — router + two
// backends over loopback — checking fingerprint-affine routing, disjoint
// cache ownership, quota rejects, and shard-down failure semantics.
#include "net/router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "graph/fingerprint.hpp"
#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/shard.hpp"
#include "svc/service.hpp"
#include "svc/tenant.hpp"
#include "tools/serve_tool.hpp"

namespace tgp::net {
namespace {

// ---- HashRing -------------------------------------------------------------

TEST(HashRing, DeterministicAcrossInstances) {
  HashRing a(4), b(4);
  for (std::uint64_t key = 0; key < 2000; ++key)
    EXPECT_EQ(a.owner(key * 0x9E3779B97F4A7C15ull),
              b.owner(key * 0x9E3779B97F4A7C15ull));
}

TEST(HashRing, SingleShardOwnsEverything) {
  HashRing ring(1);
  for (std::uint64_t key = 0; key < 100; ++key)
    EXPECT_EQ(ring.owner(key), 0u);
}

TEST(HashRing, BalancesAcrossShards) {
  const int kShards = 4;
  const int kKeys = 20000;
  HashRing ring(kShards);
  std::vector<int> hits(kShards, 0);
  for (int i = 0; i < kKeys; ++i)
    ++hits[ring.owner(ring_mix(static_cast<std::uint64_t>(i) + 1))];
  for (int s = 0; s < kShards; ++s) {
    // With 64 vnodes per shard, no shard should own less than ~a third
    // or more than ~double its fair share.
    EXPECT_GT(hits[s], kKeys / kShards / 3) << "shard " << s;
    EXPECT_LT(hits[s], kKeys / kShards * 2) << "shard " << s;
  }
}

TEST(HashRing, GrowingTheFleetMovesOnlyAFraction) {
  const int kKeys = 20000;
  HashRing four(4), five(5);
  int moved = 0;
  int to_new = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::uint64_t key = ring_mix(static_cast<std::uint64_t>(i) + 7);
    std::uint32_t before = four.owner(key);
    std::uint32_t after = five.owner(key);
    if (before != after) {
      ++moved;
      if (after == 4) ++to_new;
    }
  }
  // Consistent hashing: ~1/5 of the keyspace moves (vs ~4/5 for mod-N).
  EXPECT_LT(moved, kKeys * 2 / 5);
  // And what moves, moves to the new shard — old shards do not trade
  // keys among themselves.
  EXPECT_EQ(moved, to_new);
}

TEST(HashRing, FingerprintRoutingUsesFold) {
  HashRing ring(8);
  graph::Fingerprint fp{0x1234, 0x5678};
  EXPECT_EQ(ring.owner(fp), ring.owner(fp.fold()));
}

// ---- Tenant quota and fair queue ------------------------------------------

TEST(TenantQuota, DisabledAdmitsEverythingButCounts) {
  svc::TenantQuota quota;  // rate 0 = disabled
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(quota.admit(1, i));
  EXPECT_EQ(quota.stats().at(1).admitted, 5u);
  EXPECT_EQ(quota.stats().at(1).rejected, 0u);
}

TEST(TenantQuota, BucketsAreIndependentPerTenant) {
  svc::TenantQuota quota({.rate_per_sec = 1, .burst = 2});
  // Tenant 1 drains its bucket; tenant 2's is untouched.
  EXPECT_TRUE(quota.admit(1, 0));
  EXPECT_TRUE(quota.admit(1, 0));
  EXPECT_FALSE(quota.admit(1, 0));
  EXPECT_TRUE(quota.admit(2, 0));
  EXPECT_TRUE(quota.admit(2, 0));
  EXPECT_FALSE(quota.admit(2, 0));
  // One second refills one token at rate 1/s.
  EXPECT_TRUE(quota.admit(1, 1'000'000));
  EXPECT_FALSE(quota.admit(1, 1'000'000));
  EXPECT_EQ(quota.stats().at(1).admitted, 3u);
  EXPECT_EQ(quota.stats().at(1).rejected, 2u);
}

TEST(FairQueue, RoundRobinAcrossTenantsFifoWithin) {
  svc::FairQueue<int> q;
  // Tenant 1 floods first; tenant 2 arrives late with two items.
  for (int i = 0; i < 4; ++i) q.push(1, 10 + i);
  q.push(2, 20);
  q.push(2, 21);
  EXPECT_EQ(q.size(), 6u);

  std::vector<int> drained;
  int item = 0;
  while (q.pop(item)) drained.push_back(item);
  // Alternation: tenant 2 gets every other turn despite arriving late.
  std::vector<int> tenant2_positions;
  for (std::size_t i = 0; i < drained.size(); ++i)
    if (drained[i] >= 20) tenant2_positions.push_back(static_cast<int>(i));
  ASSERT_EQ(tenant2_positions.size(), 2u);
  EXPECT_LE(tenant2_positions[0], 1);
  EXPECT_LE(tenant2_positions[1], 3);
  // FIFO within each tenant.
  std::vector<int> tenant1;
  for (int v : drained)
    if (v < 20) tenant1.push_back(v);
  EXPECT_EQ(tenant1, (std::vector<int>{10, 11, 12, 13}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.queued_peak(), 6u);
}

// ---- In-process fleet: router + two backend shards ------------------------

struct Shard {
  std::unique_ptr<svc::PartitionService> service;
  std::unique_ptr<Backend> backend;
  std::unique_ptr<Server> server;
  std::thread loop;

  explicit Shard(std::uint32_t index, std::uint32_t count) {
    svc::ServiceConfig cfg;
    cfg.threads = 1;
    service = std::make_unique<svc::PartitionService>(cfg);
    backend = std::make_unique<Backend>(
        *service, Backend::Config{.shard_index = index, .shard_count = count});
    server = std::make_unique<Server>(Server::Config{}, *backend);
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

class RouterTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kShards = 2;

  void start_router(Router::Config cfg) {
    for (std::uint32_t s = 0; s < kShards; ++s)
      shards_.push_back(std::make_unique<Shard>(s, kShards));
    router_ = std::make_unique<Router>(cfg);
    router_server_ = std::make_unique<Server>(Server::Config{}, *router_);
    router_->attach(*router_server_);
    std::vector<std::pair<std::string, std::uint16_t>> addrs;
    for (auto& sh : shards_)
      addrs.emplace_back("127.0.0.1", sh->server->port());
    router_->connect_backends(addrs);
    router_loop_ = std::thread([this] { router_server_->run(); });
  }

  void TearDown() override {
    if (router_loop_.joinable()) {
      router_server_->stop();
      router_loop_.join();
    }
    for (auto& sh : shards_) sh->shutdown();
  }

  std::uint16_t router_port() const { return router_server_->port(); }

  /// Poll the router's metrics until tgp_shard_health{shard="S",
  /// state="NAME"} reads 1 (or fail after ~5s).  Goes over the wire so no
  /// off-loop-thread state is touched.
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

  /// Ring owner of a spec's canonical fingerprint — the pure function
  /// both the router and the backends evaluate.
  static std::uint32_t owner_of(const svc::JobSpec& spec) {
    HashRing ring(kShards);
    graph::Fingerprint fp = spec.is_chain()
                                ? graph::chain_fingerprint(*spec.chain)
                                : graph::tree_fingerprint(*spec.tree);
    return ring.owner(fp);
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<Server> router_server_;
  std::thread router_loop_;
};

TEST_F(RouterTest, RoutesBatchWithDisjointCacheOwnership) {
  start_router(Router::Config{});
  // dup-frac 0.6: plenty of repeated graphs to exercise the memo caches.
  std::vector<svc::JobSpec> specs = tools::generate_workload(60, 13, 0.6);
  std::vector<SubmitRequest> requests;
  for (const svc::JobSpec& s : specs) {
    SubmitRequest req;
    req.spec = s;
    requests.push_back(std::move(req));
  }

  Client client("127.0.0.1", router_port());
  std::vector<svc::JobResult> results = client.run_batch(requests);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    svc::JobResult direct = svc::execute_job_captured(specs[i]);
    EXPECT_EQ(results[i].status, direct.status) << "job " << i;
    EXPECT_EQ(results[i].objective, direct.objective) << "job " << i;
    EXPECT_EQ(results[i].cut.edges, direct.cut.edges) << "job " << i;
  }

  // Every shard saw only fingerprints the ring assigns to it, and every
  // submit arrived router-stamped: the fleet's caches are disjoint.
  std::map<std::uint32_t, std::uint64_t> expected_owned;
  for (const svc::JobSpec& s : specs) ++expected_owned[owner_of(s)];
  std::uint64_t total_owned = 0;
  std::uint64_t total_hits = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    Backend::ShardStats st = shards_[s]->backend->shard_stats();
    EXPECT_EQ(st.foreign_submits, 0u) << "shard " << s;
    EXPECT_EQ(st.unrouted_submits, 0u) << "shard " << s;
    EXPECT_EQ(st.foreign_cache_hits, 0u) << "shard " << s;
    EXPECT_EQ(st.owned_submits, expected_owned[s]) << "shard " << s;
    total_owned += st.owned_submits;
    total_hits += st.owned_cache_hits;
  }
  EXPECT_EQ(total_owned, specs.size());
  EXPECT_GT(total_hits, 0u);  // the duplicates actually hit

  Router::Stats rs = router_->stats();
  EXPECT_EQ(rs.forwarded, specs.size());
  EXPECT_EQ(rs.returned, specs.size());
  EXPECT_EQ(rs.fingerprints_computed, specs.size());
  EXPECT_EQ(rs.outstanding_now, 0u);
  EXPECT_EQ(rs.backends_up, kShards);
}

TEST_F(RouterTest, ClientSuppliedFingerprintIsTrusted) {
  start_router(Router::Config{});
  std::vector<svc::JobSpec> specs = tools::generate_workload(8, 17, 0);
  std::vector<SubmitRequest> requests;
  for (const svc::JobSpec& s : specs) {
    SubmitRequest req;
    req.spec = s;
    req.has_fingerprint = true;
    req.fingerprint = s.is_chain() ? graph::chain_fingerprint(*s.chain)
                                   : graph::tree_fingerprint(*s.tree);
    requests.push_back(std::move(req));
  }
  Client client("127.0.0.1", router_port());
  std::vector<svc::JobResult> results = client.run_batch(requests);
  for (const svc::JobResult& r : results) EXPECT_TRUE(r.ok);
  // The router routed on the supplied fingerprints, computing none.
  EXPECT_EQ(router_->stats().fingerprints_computed, 0u);
  for (std::uint32_t s = 0; s < kShards; ++s)
    EXPECT_EQ(shards_[s]->backend->shard_stats().foreign_submits, 0u);
}

TEST_F(RouterTest, QuotaRejectsSurfaceAsOverloadedResults) {
  Router::Config cfg;
  cfg.tenant_quota = {.rate_per_sec = 1e-6, .burst = 2};
  start_router(cfg);
  std::vector<svc::JobSpec> specs = tools::generate_workload(6, 19, 0);
  std::vector<SubmitRequest> requests;
  for (const svc::JobSpec& s : specs) {
    SubmitRequest req;
    req.tenant = 5;
    req.spec = s;
    requests.push_back(std::move(req));
  }
  Client client("127.0.0.1", router_port());
  std::vector<svc::JobResult> results = client.run_batch(requests);
  ASSERT_EQ(results.size(), 6u);
  // Burst 2, effectively zero refill: exactly the first two submits pass.
  EXPECT_TRUE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
  for (std::size_t i = 2; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, svc::JobStatus::kOverloaded) << "job " << i;
    EXPECT_NE(results[i].error.find("quota"), std::string::npos) << i;
  }
  EXPECT_EQ(router_->stats().quota_rejects, 4u);
}

TEST_F(RouterTest, DeadShardFailsFastOwnedJobsOnly) {
  // A dead shard's jobs go to its ring successor; only when no shard is
  // serving do they fail, fast, with kShardDown.  (Deaths mid-batch and
  // recovery are covered by test_net_failover.cpp.)
  start_router(Router::Config{});
  std::vector<svc::JobSpec> specs = tools::generate_workload(40, 23, 0);
  // Make sure the workload actually spans both shards.
  std::map<std::uint32_t, std::uint64_t> per_shard;
  for (const svc::JobSpec& s : specs) ++per_shard[owner_of(s)];
  ASSERT_GT(per_shard[0], 0u);
  ASSERT_GT(per_shard[1], 0u);
  std::vector<SubmitRequest> requests;
  for (const svc::JobSpec& s : specs) {
    SubmitRequest req;
    req.spec = s;
    requests.push_back(std::move(req));
  }

  shards_[1]->shutdown();  // shard 1 dies before the batch
  ASSERT_NO_FATAL_FAILURE(wait_for_state(1, "down"));
  {
    Client client("127.0.0.1", router_port());
    std::vector<svc::JobResult> results = client.run_batch(requests);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_TRUE(results[i].ok) << "job " << i << ": " << results[i].error;
  }
  // Shard 0 served shard 1's share, and counted it as foreign.
  EXPECT_GE(shards_[0]->backend->shard_stats().foreign_submits, per_shard[1]);

  shards_[0]->shutdown();  // now no shard is serving
  ASSERT_NO_FATAL_FAILURE(wait_for_state(0, "down"));
  Client client("127.0.0.1", router_port());
  std::vector<svc::JobResult> results = client.run_batch(requests);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, svc::JobStatus::kInternalError) << i;
    EXPECT_NE(results[i].error.find("no serving shard"), std::string::npos)
        << i << ": " << results[i].error;
  }
  // Over the wire: stats() is only for a stopped loop.
  const obs::MetricsRegistry metrics = client.fetch_metrics();
  EXPECT_GE(metrics.value("tgp_router_shard_down_rejects_total").value_or(0),
            static_cast<double>(specs.size()));
}

}  // namespace
}  // namespace tgp::net
