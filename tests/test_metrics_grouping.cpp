// Every Prometheus exposition the repo serves keeps each family in one
// block: one # HELP and one # TYPE per family, and all of its samples
// (histogram _bucket/_sum/_count lines included) contiguous.  Covers the
// service snapshot (tgp_serve --metrics-format prom), a backend's
// /metrics, a router's own view before any shard data arrives, and the
// router's merged fleet view.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/prom.hpp"
#include "svc/service.hpp"
#include "tools/serve_tool.hpp"

namespace tgp::net {
namespace {

/// Empty when `text` keeps every family in one block; otherwise the
/// first offence.
std::string grouping_error(const std::string& text) {
  std::map<std::string, int> help, type;
  std::set<std::string> histograms, closed;
  std::string current;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) return "blank line";
    std::string family;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      std::istringstream words(line.substr(7));
      std::string kind;
      words >> family >> kind;
      std::map<std::string, int>& seen = line[2] == 'H' ? help : type;
      if (++seen[family] > 1) return "second header: " + line;
      if (kind == "histogram") histograms.insert(family);
    } else {
      family = line.substr(0, line.find_first_of("{ "));
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::size_t n = std::strlen(suffix);
        if (family.size() > n &&
            family.compare(family.size() - n, n, suffix) == 0 &&
            histograms.count(family.substr(0, family.size() - n)) != 0) {
          family.resize(family.size() - n);
          break;
        }
      }
      if (type.count(family) == 0) return "sample before its TYPE: " + line;
    }
    if (family == current) continue;
    if (closed.count(family) != 0) return family + " split into two blocks";
    if (!current.empty()) closed.insert(current);
    current = family;
  }
  return "";
}

TEST(MetricsGrouping, CheckerCatchesSplitFamilies) {
  EXPECT_EQ(grouping_error("# TYPE a counter\na 1\n# TYPE b gauge\nb 2\n"),
            "");
  EXPECT_NE(grouping_error("# TYPE a counter\na{x=\"1\"} 1\n# TYPE b gauge\n"
                           "b 2\na{x=\"2\"} 1\n"),
            "");
  EXPECT_NE(grouping_error("# TYPE a counter\na 1\n# TYPE a counter\n"), "");
}

TEST(MetricsGrouping, ServiceSnapshot) {
  svc::ServiceConfig cfg;
  cfg.threads = 2;
  svc::PartitionService service(cfg);
  service.run_batch(tools::generate_workload(40, 19, 0.4));
  obs::MetricsRegistry r;
  service.metrics().record(r);
  const std::string text = obs::render_prometheus(r);
  EXPECT_EQ(grouping_error(text), "") << text;
}

struct Shard {
  std::unique_ptr<svc::PartitionService> service;
  std::unique_ptr<Backend> backend;
  std::unique_ptr<Server> server;
  std::thread loop;

  Shard(std::uint32_t index, std::uint32_t count) {
    svc::ServiceConfig cfg;
    cfg.threads = 1;
    service = std::make_unique<svc::PartitionService>(cfg);
    backend = std::make_unique<Backend>(
        *service, Backend::Config{.shard_index = index, .shard_count = count});
    server = std::make_unique<Server>(Server::Config{}, *backend);
    backend->attach(*server);
    loop = std::thread([this] { server->run(); });
  }

  ~Shard() {
    server->stop();
    loop.join();
    service->shutdown();
  }
};

/// A router in front of two shards, polling their metrics every tick
/// when `poll_shards`.
struct Fleet {
  std::unique_ptr<Shard> shards[2];
  std::unique_ptr<Router> router;
  std::unique_ptr<Server> server;
  std::thread loop;

  explicit Fleet(bool poll_shards) {
    for (std::uint32_t s = 0; s < 2; ++s)
      shards[s] = std::make_unique<Shard>(s, 2);
    Router::Config rc;
    rc.metrics_every_ticks = poll_shards ? 1 : 0;
    router = std::make_unique<Router>(rc);
    Server::Config sc;
    sc.tick_interval_ms = 5;
    server = std::make_unique<Server>(sc, *router);
    router->attach(*server);
    router->connect_backends({{"127.0.0.1", shards[0]->server->port()},
                              {"127.0.0.1", shards[1]->server->port()}});
    loop = std::thread([this] { server->run(); });
  }

  ~Fleet() {
    server->stop();
    loop.join();
  }

  /// A batch from each of two tenants, so the per-tenant families and
  /// the slow-request exemplars hold several samples.
  void run_two_tenants() {
    for (std::uint32_t tenant : {1u, 2u}) {
      std::vector<SubmitRequest> requests;
      for (svc::JobSpec& spec : tools::generate_workload(8, tenant, 0)) {
        SubmitRequest req;
        req.tenant = tenant;
        req.spec = std::move(spec);
        requests.push_back(std::move(req));
      }
      Client client("127.0.0.1", server->port());
      for (const svc::JobResult& r : client.run_batch(requests))
        EXPECT_TRUE(r.ok) << r.error;
    }
  }

  obs::MetricsRegistry scrape() {
    return Client("127.0.0.1", server->port()).fetch_metrics();
  }
};

TEST(MetricsGrouping, BackendMetrics) {
  Shard shard(0, 1);
  Client client("127.0.0.1", shard.server->port());
  std::vector<SubmitRequest> requests(1);
  requests[0].spec = tools::generate_workload(1, 3, 0)[0];
  EXPECT_TRUE(client.run_batch(requests)[0].ok);
  const std::string text = obs::render_prometheus(client.fetch_metrics());
  EXPECT_NE(text.find("tgp_solver_oracle_calls_total"), std::string::npos);
  EXPECT_EQ(grouping_error(text), "") << text;
}

TEST(MetricsGrouping, RouterViewWithoutShardData) {
  Fleet fleet(/*poll_shards=*/false);
  fleet.run_two_tenants();
  const obs::MetricsRegistry m = fleet.scrape();
  ASSERT_NE(m.family("tgp_router_slow_e2e_micros"), nullptr);
  EXPECT_GE(m.family("tgp_router_slow_e2e_micros")->samples.size(), 2u);
  ASSERT_NE(m.family("tgp_router_tenant_admitted_total"), nullptr);
  EXPECT_EQ(m.family("tgp_router_tenant_admitted_total")->samples.size(), 2u);
  EXPECT_EQ(m.family("tgp_jobs_submitted_total"), nullptr);
  const std::string text = obs::render_prometheus(m);
  EXPECT_EQ(grouping_error(text), "") << text;
}

TEST(MetricsGrouping, RouterFleetView) {
  Fleet fleet(/*poll_shards=*/true);
  fleet.run_two_tenants();
  obs::MetricsRegistry m;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    m = fleet.scrape();
    if (m.value("tgp_jobs_submitted_total", {{"shard", "0"}}) &&
        m.value("tgp_jobs_submitted_total", {{"shard", "1"}}))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(m.value("tgp_jobs_submitted_total", {{"shard", "1"}}));
  const std::string text = obs::render_prometheus(m);
  EXPECT_EQ(grouping_error(text), "") << text;
}

}  // namespace
}  // namespace tgp::net
