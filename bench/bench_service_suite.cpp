// The tracked service-path perf suite — emits BENCH_service.json.
//
// Measures the runtime layers the flat-graph overhaul touched *around*
// the solvers: canonicalization + fingerprinting, the memo-cache hit
// path (get_into into per-worker scratch), and whole batches through the
// worker pool.  Same contract as bench_core_suite: pinned seeds, JSON
// artifact, gated by tools/bench_diff in CI.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include <thread>

#include "bench_harness.hpp"
#include "graph/fingerprint.hpp"
#include "graph/generators.hpp"
#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace {

using namespace tgp;

// Attach the service's solver counters to the last case.  Counts are
// deterministic (they do not depend on thread interleaving or cache
// state — see svc/job.hpp), so they diff cleanly run to run.
void emit_service_counters(bench::Harness& h,
                           const svc::PartitionService& service) {
  svc::MetricsSnapshot m = service.metrics();
  obs::SolveCounters total = m.counters_total();
  h.counter("oracle_calls", total.oracle_calls);
  h.counter("bsearch_probes", total.bsearch_probes);
  h.counter("gallop_probes", total.gallop_probes);
  h.counter("prime_subpaths", total.prime_subpaths);
  h.counter("nonredundant_edges", total.nonredundant_edges);
  h.counter("cache_hits", m.cache.hits);
  h.counter("cache_misses", m.cache.misses);
}

graph::Tree make_tree(int n, unsigned salt, double* K) {
  util::Pcg32 rng(0x5E1Fu ^ (salt * 2654435761u) ^ static_cast<unsigned>(n));
  graph::Tree t = graph::random_tree(rng, n,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  *K = t.max_vertex_weight() +
       0.02 * (t.total_vertex_weight() - t.max_vertex_weight());
  return t;
}

graph::Chain make_chain(int n, unsigned salt, double* K) {
  util::Pcg32 rng(0xC4A1u ^ (salt * 40503u) ^ static_cast<unsigned>(n));
  graph::Chain c = graph::random_chain(rng, n,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  *K = c.max_vertex_weight() +
       0.01 * (c.total_vertex_weight() - c.max_vertex_weight());
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bench::HarnessOptions opt = bench::parse_args(argc, argv, &json_path);
  bench::Harness h("service", opt);

  if (opt.trace) {
    // Overhead-measurement mode: every span records into the ring
    // buffers, exactly as `tgp_serve --trace-out` would.  The snapshot
    // is discarded — this run exists to compare timings against an
    // untraced baseline (CI gates the delta).
    obs::trace::set_thread_name("bench-main");
    obs::trace::set_enabled(true);
  }

  const int tree_n = opt.quick ? 1 << 10 : 1 << 14;
  const int chain_n = opt.quick ? 1 << 10 : 1 << 15;
  const int batch = opt.quick ? 32 : 256;
  const int distinct = 16;  // graphs per batch — 16x duplication

  char name[96];

  {
    double K = 0;
    graph::Tree t = make_tree(tree_n, 0, &K);
    util::Arena arena;
    std::snprintf(name, sizeof name, "canonical_tree/n=%d", tree_n);
    h.run(name, tree_n, [&] {
      auto ct = graph::canonical_tree(t, &arena);
      (void)ct.orig_vertex.size();
    });
    std::snprintf(name, sizeof name, "tree_fingerprint/n=%d", tree_n);
    h.run(name, tree_n, [&] {
      auto fp = graph::tree_fingerprint(t, &arena);
      (void)fp.lo;
    });
    // What a tree job pays before a cache hit: the labelling alone, which
    // carries the cache key and the maps back, without the canonical tree.
    std::snprintf(name, sizeof name, "tree_job_key/n=%d", tree_n);
    h.run(name, tree_n, [&] {
      auto labelling = graph::canonical_labelling(t, &arena);
      (void)labelling.fingerprint.lo;
    });
    // The same tree randomly renumbered, as half the service's tree jobs
    // and whatever the router receives arrive: make_tree keeps the
    // generator's parent-before-child numbering, which walks memory in
    // order.
    util::Pcg32 rng(0x2E1Au);
    const graph::Tree relabelled = graph::relabel_tree(rng, t);
    std::snprintf(name, sizeof name, "tree_job_key/n=%d/relabelled", tree_n);
    h.run(name, tree_n, [&] {
      auto labelling = graph::canonical_labelling(relabelled, &arena);
      (void)labelling.fingerprint.lo;
    });
    std::snprintf(name, sizeof name, "tree_fingerprint/n=%d/relabelled",
                  tree_n);
    h.run(name, tree_n, [&] {
      auto fp = graph::tree_fingerprint(relabelled, &arena);
      (void)fp.lo;
    });
    // All a tree job's cache hit pays around the probe: the labelling,
    // then the cached bottleneck cut mapped back through it.
    const svc::CanonicalOutcome cached = svc::solve_canonical_tree(
        svc::Problem::kBottleneck, graph::canonical_tree(t).tree, K);
    std::snprintf(name, sizeof name, "tree_job_hit/n=%d/relabelled", tree_n);
    h.run(name, tree_n, [&] {
      auto labelling = graph::canonical_labelling(relabelled, &arena);
      svc::JobResult r;
      svc::apply_outcome(r, cached, labelling);
      (void)r.cut.edges.size();
    });
    // The same hit on a tree that already keeps its key, as every job
    // after the first on a shared graph::Tree is: the key is read, not
    // computed, so what is left is the map back.
    (void)relabelled.canonical_key(&arena);
    std::snprintf(name, sizeof name, "tree_job_hit/n=%d/kept", tree_n);
    h.run(name, tree_n, [&] {
      const graph::TreeKey& key = relabelled.canonical_key(&arena);
      svc::JobResult r;
      svc::apply_outcome(r, cached, key);
      (void)r.cut.edges.size();
    });
  }
  {
    // The cache's own share of a hit on its densest kind of outcome: a
    // tree bottleneck cut keeping about half the edges (service_churn's
    // tree shape and weights, K 1% of the way from the heaviest vertex to
    // the whole tree; MemoCache.DenseTreeBottleneckCutFitsOneShard's first
    // tree), CRC check and unpack into a reused scratch.
    util::Pcg32 rng(1, 0xDE45E);
    const graph::Tree t = graph::random_tree(
        rng, tree_n, graph::WeightDist::uniform(1, 50),
        graph::WeightDist::uniform(1, 100));
    const double K = t.max_vertex_weight() +
                     0.01 * (t.total_vertex_weight() - t.max_vertex_weight());
    svc::MemoCache cache(std::size_t{64} << 20, 16);
    const svc::CacheKey key = svc::CacheKey::make(
        graph::tree_fingerprint(t), svc::Problem::kBottleneck, K);
    cache.put(key, svc::solve_canonical_tree(svc::Problem::kBottleneck,
                                             graph::canonical_tree(t).tree, K));
    svc::CanonicalOutcome out;
    std::snprintf(name, sizeof name, "cache_get/n=%d/dense", tree_n);
    h.run(name, tree_n, [&] {
      const bool hit = cache.get_into(key, out);
      (void)hit;
    });
  }
  {
    double K = 0;
    graph::Chain c = make_chain(chain_n, 0, &K);
    std::snprintf(name, sizeof name, "chain_fingerprint/n=%d", chain_n);
    h.run(name, chain_n, [&] {
      auto fp = graph::chain_fingerprint(c);
      (void)fp.lo;
    });
    // A chain job's key and the orientation its hit maps back by, for
    // the presentation that is not canonical.
    const graph::Chain reversed = graph::chain_orientation(c).reversed
                                      ? c
                                      : graph::reversed_chain(c);
    std::snprintf(name, sizeof name, "chain_job_key/n=%d/reversed", chain_n);
    h.run(name, chain_n, [&] {
      auto fp = graph::chain_fingerprint(reversed);
      auto orientation = graph::chain_orientation(reversed);
      (void)fp.lo;
      (void)orientation.reversed;
    });
  }

  // Whole batches through the pool.  Jobs repeat `distinct` graphs, so
  // most solves hit the memo cache — this is the steady-state shape the
  // per-worker arena + outcome scratch are built for.
  {
    std::vector<std::shared_ptr<const graph::Tree>> trees;
    std::vector<double> ks;
    for (int i = 0; i < distinct; ++i) {
      double K = 0;
      trees.push_back(std::make_shared<const graph::Tree>(
          make_tree(tree_n, static_cast<unsigned>(i + 1), &K)));
      ks.push_back(K);
    }
    // Job i of a batch on graph i mod `distinct`; `fresh` gives each job a
    // tree copy of its own instead of the shared tree object.
    auto tree_batch = [&](int jobs, bool fresh) {
      std::vector<svc::JobSpec> specs;
      specs.reserve(static_cast<std::size_t>(jobs));
      for (int i = 0; i < jobs; ++i) {
        std::size_t g = static_cast<std::size_t>(i % distinct);
        specs.push_back(svc::JobSpec::for_tree(
            i % 2 == 0 ? svc::Problem::kBottleneck : svc::Problem::kProcMin,
            ks[g],
            fresh ? std::make_shared<const graph::Tree>(*trees[g])
                  : trees[g]));
      }
      return specs;
    };
    svc::ServiceConfig cfg;
    cfg.threads = 4;
    cfg.watchdog_interval_micros = 0;
    {
      // The trees are shared across reps, so once the warm-up has keyed
      // them (graph::Tree::canonical_key) a timed batch hashes no tree.
      svc::PartitionService service(cfg);
      std::snprintf(name, sizeof name, "service_batch_tree/n=%d/jobs=%d",
                    tree_n, batch);
      h.run(name, batch, [&] {
        auto results = service.run_batch(tree_batch(batch, false));
        (void)results.size();
      });
      emit_service_counters(h, service);
    }
    {
      // Every job carries a fresh copy of its tree, as a tgp_served
      // backend decodes one per request, so every job computes its key.
      // The copies are timed, as a decode would be; a quarter of the
      // batch keeps them to about 46 MB.
      svc::PartitionService service(cfg);
      const int fresh_batch = batch / 4;
      std::snprintf(name, sizeof name, "service_batch_tree/n=%d/jobs=%d/fresh",
                    tree_n, fresh_batch);
      h.run(name, fresh_batch, [&] {
        auto results = service.run_batch(tree_batch(fresh_batch, true));
        (void)results.size();
      });
      emit_service_counters(h, service);
    }
  }
  {
    std::vector<std::shared_ptr<const graph::Chain>> chains;
    std::vector<double> ks;
    for (int i = 0; i < distinct; ++i) {
      double K = 0;
      chains.push_back(std::make_shared<const graph::Chain>(
          make_chain(chain_n, static_cast<unsigned>(i + 1), &K)));
      ks.push_back(K);
    }
    svc::ServiceConfig cfg;
    cfg.threads = 4;
    cfg.watchdog_interval_micros = 0;
    svc::PartitionService service(cfg);
    std::snprintf(name, sizeof name, "service_batch_chain/n=%d/jobs=%d",
                  chain_n, batch);
    h.run(name, batch, [&] {
      std::vector<svc::JobSpec> specs;
      specs.reserve(static_cast<std::size_t>(batch));
      for (int i = 0; i < batch; ++i) {
        std::size_t g = static_cast<std::size_t>(i % distinct);
        specs.push_back(svc::JobSpec::for_chain(
            i % 2 == 0 ? svc::Problem::kBandwidth : svc::Problem::kBottleneck,
            ks[g], chains[g]));
      }
      auto results = service.run_batch(std::move(specs));
      (void)results.size();
    });
    emit_service_counters(h, service);
  }

  // The same duplicate-heavy chain batch, but through the network front
  // door: encode → loopback socket → epoll server → decode → pool →
  // result frames back.  Diffing this case against service_batch_chain
  // prices the wire layer itself; n is smaller so framing, not solving,
  // dominates.
  {
    const int net_n = opt.quick ? 1 << 10 : 1 << 13;
    std::vector<std::shared_ptr<const graph::Chain>> chains;
    std::vector<double> ks;
    for (int i = 0; i < distinct; ++i) {
      double K = 0;
      chains.push_back(std::make_shared<const graph::Chain>(
          make_chain(net_n, static_cast<unsigned>(i + 1), &K)));
      ks.push_back(K);
    }
    svc::ServiceConfig cfg;
    cfg.threads = 4;
    cfg.watchdog_interval_micros = 0;
    svc::PartitionService service(cfg);
    net::Backend backend(service, net::Backend::Config{});
    net::Server server(net::Server::Config{}, backend);
    backend.attach(server);
    std::thread loop([&] { server.run(); });
    net::Client client("127.0.0.1", server.port());
    std::snprintf(name, sizeof name, "net_batch/n=%d/jobs=%d", net_n, batch);
    h.run(name, batch, [&] {
      std::vector<net::SubmitRequest> requests;
      requests.reserve(static_cast<std::size_t>(batch));
      for (int i = 0; i < batch; ++i) {
        std::size_t g = static_cast<std::size_t>(i % distinct);
        net::SubmitRequest req;
        req.spec = svc::JobSpec::for_chain(
            i % 2 == 0 ? svc::Problem::kBandwidth : svc::Problem::kBottleneck,
            ks[g], chains[g]);
        requests.push_back(std::move(req));
      }
      auto results = client.run_batch(requests);
      (void)results.size();
    });
    emit_service_counters(h, service);
    server.stop();
    loop.join();
    service.shutdown();
  }

  // The same wire batch against a DEGRADED two-shard fleet: a router
  // fronts two backends, one of which is already dead.
  // Every key the dead shard owns detours to the ring successor at
  // dispatch, so diffing this case against net_batch prices the failover
  // path itself (route_of walk + frame copy kept for hand-off) under
  // steady-state failover, not the transient.
  {
    const int net_n = opt.quick ? 1 << 10 : 1 << 13;
    std::vector<std::shared_ptr<const graph::Chain>> chains;
    std::vector<double> ks;
    for (int i = 0; i < distinct; ++i) {
      double K = 0;
      chains.push_back(std::make_shared<const graph::Chain>(
          make_chain(net_n, static_cast<unsigned>(i + 1), &K)));
      ks.push_back(K);
    }
    std::vector<std::unique_ptr<svc::PartitionService>> services;
    std::vector<std::unique_ptr<net::Backend>> backends;
    std::vector<std::unique_ptr<net::Server>> shard_servers;
    std::vector<std::thread> shard_loops;
    for (std::uint32_t s = 0; s < 2; ++s) {
      svc::ServiceConfig cfg;
      cfg.threads = 2;
      cfg.watchdog_interval_micros = 0;
      services.push_back(std::make_unique<svc::PartitionService>(cfg));
      backends.push_back(std::make_unique<net::Backend>(
          *services[s],
          net::Backend::Config{.shard_index = s, .shard_count = 2}));
      shard_servers.push_back(std::make_unique<net::Server>(
          net::Server::Config{}, *backends[s]));
      backends[s]->attach(*shard_servers[s]);
      // The loop gets the server itself: indexing shard_servers from the
      // thread would race with the next iteration's push_back.
      shard_loops.emplace_back(
          [server = shard_servers[s].get()] { server->run(); });
    }

    net::Router::Config rc;
    // Park reconnects far beyond the run: the case measures the steady
    // detour, not redial churn against a dead port.
    rc.health.down_cooldown_us = 3.6e9;
    net::Router router(rc);
    net::Server::Config sc;
    sc.tick_interval_ms = 10;
    net::Server router_server(sc, router);
    router.attach(router_server);
    router.connect_backends({{"127.0.0.1", shard_servers[0]->port()},
                             {"127.0.0.1", shard_servers[1]->port()}});
    std::thread router_loop([&] { router_server.run(); });

    // Kill shard 1 before measuring: the close marks it down at once.
    shard_servers[1]->stop();
    shard_loops[1].join();
    services[1]->shutdown();

    net::Client client("127.0.0.1", router_server.port());
    std::snprintf(name, sizeof name, "fleet_failover/n=%d/jobs=%d", net_n,
                  batch);
    h.run(name, batch, [&] {
      std::vector<net::SubmitRequest> requests;
      requests.reserve(static_cast<std::size_t>(batch));
      for (int i = 0; i < batch; ++i) {
        std::size_t g = static_cast<std::size_t>(i % distinct);
        net::SubmitRequest req;
        req.spec = svc::JobSpec::for_chain(
            i % 2 == 0 ? svc::Problem::kBandwidth : svc::Problem::kBottleneck,
            ks[g], chains[g]);
        requests.push_back(std::move(req));
      }
      auto results = client.run_batch(requests);
      (void)results.size();
    });
    router_server.stop();
    router_loop.join();
    shard_servers[0]->stop();
    shard_loops[0].join();
    services[0]->shutdown();
    const net::Router::Stats rs = router.stats();
    h.counter("requests_rerouted", rs.requests_rerouted);
    h.counter("shard_down_rejects", rs.shard_down_rejects);
    emit_service_counters(h, *services[0]);
  }

  // Durable warm start: the same first-100-request burst against a cold
  // boot (empty cache dir, every solve from scratch) and a warm boot
  // (cache recovered from a prior session's journal, the burst served
  // from memory).  Both cases time construction + batch + shutdown —
  // the whole restart — so the p95 gap between them in the JSON is the
  // dividend the snapshot+journal machinery pays on the requests that
  // land right after a restart.
  {
    const int wn = opt.quick ? 1 << 10 : 1 << 13;
    const int first = 100;
    const int wdistinct = 25;  // 4x duplication inside the burst
    std::vector<std::shared_ptr<const graph::Chain>> chains;
    std::vector<double> ks;
    for (int i = 0; i < wdistinct; ++i) {
      double K = 0;
      chains.push_back(std::make_shared<const graph::Chain>(
          make_chain(wn, static_cast<unsigned>(i + 101), &K)));
      ks.push_back(K);
    }
    auto burst = [&] {
      std::vector<svc::JobSpec> specs;
      specs.reserve(static_cast<std::size_t>(first));
      for (int i = 0; i < first; ++i) {
        std::size_t g = static_cast<std::size_t>(i % wdistinct);
        specs.push_back(svc::JobSpec::for_chain(
            i % 2 == 0 ? svc::Problem::kBandwidth : svc::Problem::kBottleneck,
            ks[g], chains[g]));
      }
      return specs;
    };
    char cold_dir[] = "/tmp/tgp_bench_cold_XXXXXX";
    char warm_dir[] = "/tmp/tgp_bench_warm_XXXXXX";
    if (::mkdtemp(cold_dir) == nullptr || ::mkdtemp(warm_dir) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    auto clear_dir = [](const char* dir) {
      for (const char* f :
           {"cache.snapshot", "cache.journal", "cache.clean",
            "quarantine.bin"})
        std::remove((std::string(dir) + "/" + f).c_str());
    };
    auto durable_config = [](const char* dir) {
      svc::ServiceConfig cfg;
      cfg.threads = 4;
      cfg.watchdog_interval_micros = 0;
      cfg.cache_dir = dir;
      return cfg;
    };
    // Seed the warm dir once: a throwaway session solves the burst,
    // journals it, and flushes the clean marker.
    {
      svc::PartitionService warmer(durable_config(warm_dir));
      auto results = warmer.run_batch(burst());
      (void)results.size();
      warmer.shutdown();
      warmer.flush_durable();
    }
    std::snprintf(name, sizeof name, "service_cold_first100/n=%d", wn);
    h.run(name, first, [&] {
      clear_dir(cold_dir);
      svc::PartitionService service(durable_config(cold_dir));
      auto results = service.run_batch(burst());
      (void)results.size();
      service.shutdown();
    });
    std::snprintf(name, sizeof name, "service_warm_first100/n=%d", wn);
    h.run(name, first, [&] {
      svc::PartitionService service(durable_config(warm_dir));
      auto results = service.run_batch(burst());
      (void)results.size();
      service.shutdown();
    });
    clear_dir(cold_dir);
    clear_dir(warm_dir);
  }

  if (opt.trace) {
    obs::trace::set_enabled(false);
    obs::trace::TraceSnapshot snap = obs::trace::snapshot();
    std::printf("traced: %zu spans recorded, %llu dropped\n",
                snap.events.size(),
                static_cast<unsigned long long>(snap.dropped));
  }

  h.print_table();
  if (!json_path.empty() && !h.write_json(json_path)) return 1;
  return 0;
}
