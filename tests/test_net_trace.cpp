// Distributed-trace propagation end to end, in process: a traced client
// batch through a router and two loopback backend shards must produce
// one connected span tree per request (client root → router bookkeeping
// → backend/service spans), survive a mid-batch shard kill (the handed-
// off request keeps its trace id), and feed the router's fleet-wide
// /metrics aggregation and slowest-request log.
//
// All three processes of a real fleet share this test process's ring,
// which is exactly what makes the parent-link closure checkable here
// without filesystem traffic.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "tools/serve_tool.hpp"

namespace tgp::net {
namespace {

/// Answers metrics polls with the length-prefixed exposition text an
/// older shard sent, which the registry decoder rejects; every other
/// frame goes to the real backend.
class TextMetricsBackend : public Server::Handler {
 public:
  explicit TextMetricsBackend(Backend& inner) : inner_(inner) {}

  void on_frame(std::uint64_t conn, const FrameHeader& header,
                std::span<const std::uint8_t> payload) override {
    if (header.type != FrameType::kMetricsRequest) {
      inner_.on_frame(conn, header, payload);
      return;
    }
    const std::string text = "# TYPE tgp_up gauge\ntgp_up 1\n";
    FrameHeader h;
    h.type = FrameType::kMetricsReply;
    h.request_id = header.request_id;
    h.payload_len = static_cast<std::uint32_t>(4 + text.size());
    std::vector<std::uint8_t> frame;
    put_header(frame, h);
    put_u32(frame, static_cast<std::uint32_t>(text.size()));
    frame.insert(frame.end(), text.begin(), text.end());
    server->send(conn, std::move(frame));
  }

  Server* server = nullptr;

 private:
  Backend& inner_;
};

struct Shard {
  std::unique_ptr<svc::PartitionService> service;
  std::unique_ptr<Backend> backend;
  std::unique_ptr<TextMetricsBackend> text_metrics;
  std::unique_ptr<Server> server;
  std::thread loop;

  Shard(std::uint32_t index, std::uint32_t count, bool undecodable_metrics) {
    svc::ServiceConfig cfg;
    cfg.threads = 1;
    service = std::make_unique<svc::PartitionService>(cfg);
    backend = std::make_unique<Backend>(
        *service, Backend::Config{.shard_index = index, .shard_count = count});
    Server::Handler* handler = backend.get();
    if (undecodable_metrics) {
      text_metrics = std::make_unique<TextMetricsBackend>(*backend);
      handler = text_metrics.get();
    }
    Server::Config sc;
    server = std::make_unique<Server>(sc, *handler);
    backend->attach(*server);
    if (text_metrics) text_metrics->server = server.get();
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

class NetTraceTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kShards = 2;

  void SetUp() override {
    obs::trace::set_enabled(false);
    obs::trace::clear();
  }

  void TearDown() override {
    stop_router();
    for (auto& sh : shards_) sh->shutdown();
    obs::trace::set_enabled(false);
    obs::trace::clear();
  }

  /// `undecodable_metrics_shard` (when < kShards) answers every metrics
  /// poll with bytes the router cannot decode.
  void start_fleet(std::uint32_t undecodable_metrics_shard = kShards) {
    for (std::uint32_t s = 0; s < kShards; ++s)
      shards_.push_back(
          std::make_unique<Shard>(s, kShards, s == undecodable_metrics_shard));

    Router::Config rc;
    rc.connect_timeout_ms = 100;
    rc.metrics_every_ticks = 2;  // scrape shard /metrics every 2 ticks
    rc.slow_log_size = 4;
    router_ = std::make_unique<Router>(rc);
    Server::Config sc;
    sc.tick_interval_ms = 5;
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

  std::uint16_t router_port() const { return router_server_->port(); }

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

  static std::vector<svc::JobResult> traced_batch(
      std::uint16_t port, const std::vector<svc::JobSpec>& specs) {
    Client::Config cc;
    cc.host = "127.0.0.1";
    cc.port = port;
    cc.trace = true;
    Client client(cc);
    return client.run_batch(to_requests(specs));
  }

  /// Per-trace span index of the snapshot: trace id → (span id →  event).
  using SpanIndex =
      std::map<std::pair<std::uint64_t, std::uint64_t>,
               std::map<std::uint64_t, obs::TraceEvent>>;

  static SpanIndex index_spans(const obs::trace::TraceSnapshot& snap) {
    SpanIndex by_trace;
    for (const obs::TraceEvent& ev : snap.events) {
      if ((ev.trace_hi | ev.trace_lo) == 0) continue;
      by_trace[{ev.trace_hi, ev.trace_lo}][ev.span_id] = ev;
    }
    return by_trace;
  }

  /// Every span of every trace either is the root (parent 0) or parents
  /// to another span of the same trace — the invariant the stitcher's
  /// --stitched validation enforces across process files.
  static void check_parent_closure(const SpanIndex& by_trace) {
    for (const auto& [id, spans] : by_trace) {
      int roots = 0;
      for (const auto& [span_id, ev] : spans) {
        if (ev.parent_span == 0) {
          ++roots;
          EXPECT_STREQ(ev.name, "client.request");
        } else {
          EXPECT_TRUE(spans.count(ev.parent_span))
              << ev.cat << "/" << ev.name << " parents to unknown span";
        }
      }
      EXPECT_EQ(roots, 1) << "trace must have exactly one root";
    }
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<Server> router_server_;
  std::thread router_loop_;
};

TEST_F(NetTraceTest, EveryRequestBecomesOneConnectedSpanTree) {
  start_fleet();
  std::vector<svc::JobSpec> specs = tools::generate_workload(12, 5, 0);

  obs::trace::set_enabled(true);
  std::vector<svc::JobResult> results = traced_batch(router_port(), specs);
  obs::trace::set_enabled(false);

  ASSERT_EQ(results.size(), specs.size());
  for (const svc::JobResult& r : results) EXPECT_TRUE(r.ok) << r.error;

  SpanIndex by_trace = index_spans(obs::trace::snapshot());
  EXPECT_EQ(by_trace.size(), specs.size());  // fresh trace id per request
  check_parent_closure(by_trace);

  // Each tree carries the whole journey: client root, router queue/
  // dispatch bookkeeping, the backend's handling and the solve itself.
  for (const auto& [id, spans] : by_trace) {
    std::set<std::string> names;
    for (const auto& [span_id, ev] : spans)
      names.insert(std::string(ev.cat) + "/" + ev.name);
    EXPECT_TRUE(names.count("net/client.request"));
    EXPECT_TRUE(names.count("net/router.submit"));
    EXPECT_TRUE(names.count("net/router.queue.wait"));
    EXPECT_TRUE(names.count("net/router.backend"));
    EXPECT_TRUE(names.count("net/backend.submit"));
    EXPECT_TRUE(names.count("svc/job")) << "solve spans missing";
  }
}

TEST_F(NetTraceTest, UntracedBatchRecordsNoDistributedIds) {
  start_fleet();
  std::vector<svc::JobSpec> specs = tools::generate_workload(6, 9, 0);
  obs::trace::set_enabled(true);
  Client client("127.0.0.1", router_port());
  std::vector<svc::JobResult> results = client.run_batch(to_requests(specs));
  obs::trace::set_enabled(false);
  for (const svc::JobResult& r : results) EXPECT_TRUE(r.ok) << r.error;
  // Spans were recorded (tracing is on) but none carry a trace id: the
  // wire frames stayed v1 and nothing installed a sampled context.
  EXPECT_TRUE(index_spans(obs::trace::snapshot()).empty());
}

TEST_F(NetTraceTest, MidBatchShardKillKeepsTheTraceConnected) {
  start_fleet();
  std::vector<svc::JobSpec> specs = tools::generate_workload(80, 31, 0);

  obs::trace::set_enabled(true);
  std::thread killer([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    shards_[1]->shutdown();
  });
  std::vector<svc::JobResult> results = traced_batch(router_port(), specs);
  killer.join();
  obs::trace::set_enabled(false);

  ASSERT_EQ(results.size(), specs.size());
  for (const svc::JobResult& r : results) EXPECT_TRUE(r.ok) << r.error;

  // Hand-offs (and the client's own reconnect resubmits, which re-send
  // the same frame bytes) must not orphan or fork any trace.
  check_parent_closure(index_spans(obs::trace::snapshot()));
}

TEST_F(NetTraceTest, RouterMetricsAggregateTheFleet) {
  start_fleet();
  std::vector<svc::JobSpec> specs = tools::generate_workload(10, 3, 0);
  obs::trace::set_enabled(true);
  for (const svc::JobResult& r : traced_batch(router_port(), specs))
    EXPECT_TRUE(r.ok) << r.error;
  obs::trace::set_enabled(false);

  // The shard scrape is tick-driven; poll until both shards' scraped-
  // through series appear under the router's one exposition document
  // (the router's own tgp_shard_health gauges carry a shard label too,
  // so the probe must name a backend-originated family).
  std::string text;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    Client probe("127.0.0.1", router_port());
    text = obs::render_prometheus(probe.fetch_metrics());
    if (text.find("tgp_jobs_submitted_total{shard=\"0\"}") !=
            std::string::npos &&
        text.find("tgp_jobs_submitted_total{shard=\"1\"}") !=
            std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Router-side families.
  EXPECT_NE(text.find("tgp_router_e2e_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("tgp_router_e2e_latency_seconds_count"),
            std::string::npos);
  EXPECT_NE(text.find("tgp_router_slow_e2e_micros"), std::string::npos);
  EXPECT_NE(text.find("tgp_build_info"), std::string::npos);
  EXPECT_NE(text.find("tgp_trace_dropped_total"), std::string::npos);
  // Scraped-through shard families with the shard label stamped on.
  EXPECT_NE(text.find("tgp_jobs_submitted_total{shard=\"0\"}"),
            std::string::npos)
      << text.substr(0, 2000);
  EXPECT_NE(text.find("tgp_jobs_submitted_total{shard=\"1\"}"),
            std::string::npos);
  // One HELP header per family even though three documents merged.
  EXPECT_EQ(text.find("# HELP tgp_build_info"),
            text.rfind("# HELP tgp_build_info"));
}

TEST_F(NetTraceTest, UndecodableShardMetricsLeaveOnlyThatShardOut) {
  start_fleet(/*undecodable_metrics_shard=*/1);
  std::vector<svc::JobSpec> specs = tools::generate_workload(10, 3, 0);
  for (const svc::JobResult& r : traced_batch(router_port(), specs))
    EXPECT_TRUE(r.ok) << r.error;

  // Wait for shard 0's scraped series, then a few more poll rounds so
  // shard 1 has answered (undecodably) many times over.
  obs::MetricsRegistry m;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         !m.value("tgp_jobs_submitted_total", {{"shard", "0"}})) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    m = Client("127.0.0.1", router_port()).fetch_metrics();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  m = Client("127.0.0.1", router_port()).fetch_metrics();

  // Shard 0 is merged; none of shard 1's series are.
  EXPECT_TRUE(m.value("tgp_jobs_submitted_total", {{"shard", "0"}}));
  EXPECT_FALSE(m.value("tgp_jobs_submitted_total", {{"shard", "1"}}));
  for (const obs::MetricsRegistry::Family& f : m.families()) {
    if (f.name == "tgp_shard_health" ||
        f.name.rfind("tgp_router_slow_", 0) == 0)
      continue;  // the router's own per-shard series
    for (const obs::MetricsRegistry::Sample& s : f.samples)
      for (const auto& [key, value] : s.labels)
        EXPECT_FALSE(key == "shard" && value == "1") << f.name;
  }
  // The failed decodes touched neither the link nor its health, and
  // routing through both shards goes on.
  EXPECT_EQ(m.value("tgp_shard_health", {{"shard", "1"}, {"state", "up"}}),
            1.0);
  EXPECT_EQ(m.value("tgp_router_backends_up"), kShards);
  for (const svc::JobResult& r :
       traced_batch(router_port(), tools::generate_workload(10, 5, 0)))
    EXPECT_TRUE(r.ok) << r.error;
}

TEST_F(NetTraceTest, SlowLogRanksRequestsAndCarriesTraceIds) {
  start_fleet();
  std::vector<svc::JobSpec> specs = tools::generate_workload(20, 11, 0);
  obs::trace::set_enabled(true);
  for (const svc::JobResult& r : traced_batch(router_port(), specs))
    EXPECT_TRUE(r.ok) << r.error;
  obs::trace::set_enabled(false);
  stop_router();

  std::vector<Router::SlowRequest> slow = router_->slow_requests();
  ASSERT_FALSE(slow.empty());
  ASSERT_LE(slow.size(), 4u);  // slow_log_size
  for (std::size_t i = 1; i < slow.size(); ++i)
    EXPECT_GE(slow[i - 1].e2e_micros, slow[i].e2e_micros);
  for (const Router::SlowRequest& s : slow) {
    EXPECT_LT(s.shard, kShards);
    EXPECT_GE(s.e2e_micros, s.queue_micros + s.backend_micros - 1.0);
    EXPECT_NE(s.trace_hi | s.trace_lo, 0u);  // batch was traced
  }
  const std::string json = router_->slow_log_json();
  EXPECT_NE(json.find("\"e2e_us\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
}

}  // namespace
}  // namespace tgp::net
