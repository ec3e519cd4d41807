// Socket soak: the full network front door under sustained load.
//
// Builds the fleet in one process — N backend shards (each its own
// PartitionService + epoll Server) behind a shard Router — and drives
// >= 100k requests through a pipelining wire client, cycling a fixed
// set of distinct jobs so the shard memo caches see duplicate-heavy
// steady-state traffic.  The run then *asserts* (hard process exit):
//
//   * every request comes back kOk — no internal errors, no rejects,
//     no drops across >= 100k socket round trips;
//   * every payload is bit-identical to a direct no-service solve of
//     the same spec (cut, objective, components);
//   * routing is fingerprint-affine and cache ownership disjoint: every
//     shard's foreign/unrouted submit counters and foreign cache-hit
//     counters are exactly zero — verified both from the in-process
//     ShardStats and from each shard's exported metrics, the same
//     counters an operator would alert on;
//   * the fleet deduplicates globally: each distinct job is solved at
//     most once per owning shard, everything else is a memo hit.
//
// --quick shrinks the request count for the TSan smoke job in CI; the
// assertions are identical.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "svc/service.hpp"
#include "tools/serve_tool.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace tgp;

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  std::exit(1);
}

/// One in-process backend shard: service + handler + server + loop.
struct Shard {
  std::unique_ptr<svc::PartitionService> service;
  std::unique_ptr<net::Backend> backend;
  std::unique_ptr<net::Server> server;
  std::thread loop;

  Shard(std::uint32_t index, std::uint32_t count) {
    svc::ServiceConfig cfg;
    cfg.threads = 1;
    service = std::make_unique<svc::PartitionService>(cfg);
    backend = std::make_unique<net::Backend>(
        *service,
        net::Backend::Config{.shard_index = index, .shard_count = count});
    server = std::make_unique<net::Server>(net::Server::Config{}, *backend);
    backend->attach(*server);
    loop = std::thread([this] { server->run(); });
  }

  void shutdown() {
    server->stop();
    loop.join();
    service->shutdown();
  }
};


}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  long long requested = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
      requested = std::atoll(argv[i + 1]);
  }

  constexpr std::uint32_t kShards = 2;
  const std::size_t kRequests =
      requested > 0 ? static_cast<std::size_t>(requested)
                    : (quick ? 3000 : 100'000);
  const int kDistinct = 256;
  const std::size_t kBatch = 1000;
  std::printf("=== socket soak (router + %u shards, %zu requests%s) ===\n\n",
              kShards, kRequests, quick ? ", quick" : "");

  // The cycled workload and its direct-path reference payloads.
  std::vector<svc::JobSpec> specs =
      tools::generate_workload(kDistinct, 0x50CC, 0.0);
  std::vector<svc::JobResult> ref;
  ref.reserve(specs.size());
  for (const svc::JobSpec& s : specs)
    ref.push_back(svc::execute_job_captured(s));
  for (const svc::JobResult& r : ref)
    if (!r.ok) fail("reference solve failed — workload is broken");

  // The fleet: shards first, then the router dialing out to them.
  std::vector<std::unique_ptr<Shard>> shards;
  for (std::uint32_t s = 0; s < kShards; ++s)
    shards.push_back(std::make_unique<Shard>(s, kShards));
  net::Router router{net::Router::Config{}};
  net::Server router_server{net::Server::Config{}, router};
  router.attach(router_server);
  {
    std::vector<std::pair<std::string, std::uint16_t>> addrs;
    for (auto& sh : shards)
      addrs.emplace_back("127.0.0.1", sh->server->port());
    router.connect_backends(addrs);
  }
  std::thread router_loop([&] { router_server.run(); });

  // The soak: pipelined batches through one client connection, cycling
  // the distinct specs so all but the first presentation of each is a
  // memo hit on its owning shard.
  net::Client client("127.0.0.1", router_server.port());
  std::size_t sent = 0;
  std::size_t cache_hits = 0;
  double soak_seconds = 0;
  {
    util::ScopedTimer t(soak_seconds, util::ScopedTimer::Unit::kSeconds);
    while (sent < kRequests) {
      const std::size_t batch = std::min(kBatch, kRequests - sent);
      std::vector<net::SubmitRequest> requests;
      requests.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        net::SubmitRequest req;
        req.tenant = static_cast<std::uint32_t>((sent + i) % 4);
        req.spec = specs[(sent + i) % specs.size()];
        requests.push_back(std::move(req));
      }
      std::vector<svc::JobResult> results = client.run_batch(requests);
      if (results.size() != batch) fail("short batch from the router");
      for (std::size_t i = 0; i < batch; ++i) {
        const svc::JobResult& r = results[i];
        const svc::JobResult& want = ref[(sent + i) % specs.size()];
        if (r.status != svc::JobStatus::kOk)
          fail(std::string("request ended ") +
               svc::job_status_name(r.status) + ": " + r.error);
        if (r.cut.edges != want.cut.edges || r.objective != want.objective ||
            r.components != want.components)
          fail("a socket result differs from the direct solve");
        if (r.cache_hit) ++cache_hits;
      }
      sent += batch;
    }
  }

  // --- Disjointness assertions -----------------------------------------
  // Once from the in-process stats, once from each shard's exported
  // metrics — the operator-facing view must agree with the ground truth.
  std::uint64_t owned_submits = 0;
  std::uint64_t owned_hits = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    net::Backend::ShardStats st = shards[s]->backend->shard_stats();
    if (st.foreign_submits != 0)
      fail("shard " + std::to_string(s) + " saw foreign submits");
    if (st.unrouted_submits != 0)
      fail("shard " + std::to_string(s) + " saw unrouted submits");
    if (st.foreign_cache_hits != 0)
      fail("shard " + std::to_string(s) + " served foreign cache hits");
    owned_submits += st.owned_submits;
    owned_hits += st.owned_cache_hits;

    net::Client scrape("127.0.0.1", shards[s]->server->port());
    const obs::MetricsRegistry metrics = scrape.fetch_metrics();
    auto series = [&](const char* family, const char* ownership) {
      const std::optional<double> v = metrics.value(
          family, {{"shard", std::to_string(s)}, {"ownership", ownership}});
      if (!v) fail(std::string("metrics lack ") + family + " " + ownership);
      return *v;
    };
    if (series("tgp_net_shard_submits_total", "foreign") != 0 ||
        series("tgp_net_shard_cache_hits_total", "foreign") != 0)
      fail("shard " + std::to_string(s) +
           " exports nonzero foreign counters");
    if (series("tgp_net_shard_submits_total", "owned") !=
        static_cast<double>(st.owned_submits))
      fail("exported metrics disagree with in-process shard stats");
  }
  if (owned_submits != kRequests)
    fail("owned submits across the fleet != requests sent");
  // Global dedup: each distinct job misses at most once fleet-wide
  // (exactly once with single-worker shards; the slack below covers
  // nothing today but keeps the assertion honest if shards gain threads).
  if (owned_hits + 2 * static_cast<std::uint64_t>(kDistinct) < kRequests)
    fail("too few cache hits — the fleet re-solved duplicate jobs");
  if (cache_hits != owned_hits)
    fail("client-observed cache hits != shard-side cache-hit counters");

  net::Router::Stats rs = router.stats();
  if (rs.forwarded != kRequests || rs.returned != kRequests)
    fail("router forward/return counters do not match the request count");
  if (rs.quota_rejects + rs.overload_rejects + rs.shard_down_rejects != 0)
    fail("router rejected traffic during a clean soak");

  // --- Report ----------------------------------------------------------
  util::Table t({"metric", "value"});
  t.row().cell("requests").cell(static_cast<std::int64_t>(kRequests));
  t.row().cell("wall (s)").cell(soak_seconds, 2);
  t.row().cell("throughput (req/s)").cell(
      static_cast<double>(kRequests) / std::max(soak_seconds, 1e-9), 0);
  t.row().cell("distinct jobs").cell(static_cast<std::int64_t>(kDistinct));
  t.row().cell("cache hits (fleet)").cell(
      static_cast<std::int64_t>(owned_hits));
  t.row().cell("fingerprints computed (router)").cell(
      static_cast<std::int64_t>(rs.fingerprints_computed));
  for (std::uint32_t s = 0; s < kShards; ++s) {
    net::Backend::ShardStats st = shards[s]->backend->shard_stats();
    t.row()
        .cell("shard " + std::to_string(s) + " owned submits / hits")
        .cell(std::to_string(st.owned_submits) + " / " +
              std::to_string(st.owned_cache_hits));
  }
  t.print();

  router_server.stop();
  router_loop.join();
  for (auto& sh : shards) sh->shutdown();

  std::printf("\nOK: %zu requests over loopback, zero internal errors,\n"
              "every payload bit-identical to the direct solve, and both\n"
              "shards' foreign/unrouted counters exactly zero.\n",
              kRequests);
  return 0;
}
