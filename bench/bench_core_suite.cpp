// The tracked core-solver perf suite — emits BENCH_core.json.
//
// Every case here is a hot path the flat-graph (CSR + arena) overhaul is
// accountable for.  The committed BENCH_core.json is the baseline; CI
// re-runs this suite and gates on tools/bench_diff.  Cases pin their
// generator seeds so baseline and candidate always solve the same
// instances.
//
//   bench_core_suite --json BENCH_core.json          # full run
//   bench_core_suite --quick                          # smoke (ctest)
#include <cstdio>

#include "bench_harness.hpp"
#include "core/bandwidth_min.hpp"
#include "core/bottleneck_min.hpp"
#include "core/chain_bottleneck.hpp"
#include "core/proc_min.hpp"
#include "core/prime_subpaths.hpp"
#include "core/tree_bandwidth.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace {

using namespace tgp;

graph::Chain make_chain(int n, int regime, double* K) {
  util::Pcg32 rng(0x51AB ^ static_cast<unsigned>(n * 3 + regime));
  graph::Chain c = graph::random_chain(rng, n,
                                       graph::WeightDist::uniform(1, 100),
                                       graph::WeightDist::uniform(1, 100));
  double maxw = c.max_vertex_weight();
  double total = c.total_vertex_weight();
  double frac = regime == 0 ? 0.00002 : regime == 1 ? 0.005 : 0.5;
  *K = maxw + frac * (total - maxw);
  return c;
}

graph::Tree make_tree(int n, double* K) {
  util::Pcg32 rng(0xB077 ^ static_cast<unsigned>(n));
  graph::Tree t = graph::random_tree(rng, n,
                                     graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 100));
  *K = t.max_vertex_weight() +
       0.01 * (t.total_vertex_weight() - t.max_vertex_weight());
  return t;
}

const char* kRegimeName[] = {"tight", "mid", "loose"};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bench::HarnessOptions opt = bench::parse_args(argc, argv, &json_path);
  bench::Harness h("core", opt);
  util::Arena arena;  // one warm arena, like a service worker's

  // --quick shrinks instances so sanitizer/smoke ctest runs stay cheap.
  const int chain_n = opt.quick ? 1 << 12 : 1 << 18;
  const int tree_n = opt.quick ? 1 << 12 : 1 << 17;
  const int greedy_n = opt.quick ? 1 << 12 : 1 << 16;

  char name[96];

  for (int regime : {0, 1, 2}) {
    double K = 0;
    graph::Chain c = make_chain(chain_n, regime, &K);
    std::snprintf(name, sizeof name, "bandwidth_temps/n=%d/%s", chain_n,
                  kRegimeName[regime]);
    h.run(name, chain_n, [&] {
      auto r = core::bandwidth_min_temps(c, K, nullptr,
                                         core::SearchPolicy::kBinary, nullptr,
                                         &arena);
      (void)r.cut_weight;
    });
  }

  // The mid case keeps its unsuffixed name, which the committed
  // BENCH_core.json records; name it /mid when that file is re-recorded.
  for (int regime : {0, 1, 2}) {
    double K = 0;
    graph::Chain c = make_chain(chain_n, regime, &K);
    if (regime == 1)
      std::snprintf(name, sizeof name, "chain_bottleneck/n=%d", chain_n);
    else
      std::snprintf(name, sizeof name, "chain_bottleneck/n=%d/%s", chain_n,
                    kRegimeName[regime]);
    h.run(name, chain_n, [&] {
      auto r = core::chain_bottleneck_min(c, K, &arena);
      (void)r.threshold;
    });
  }

  {
    double K = 0;
    graph::Chain c = make_chain(chain_n, 1, &K);
    std::snprintf(name, sizeof name, "prime_subpaths/n=%d", chain_n);
    h.run(name, chain_n, [&] {
      auto primes = core::prime_subpaths(c, K);
      (void)primes.size();
    });
  }

  {
    double K = 0;
    graph::Tree t = make_tree(tree_n, &K);
    std::snprintf(name, sizeof name, "bottleneck_bsearch/n=%d", tree_n);
    h.run(name, tree_n, [&] {
      auto r = core::bottleneck_min_bsearch(t, K, nullptr, &arena);
      (void)r.threshold;
    });
    std::snprintf(name, sizeof name, "procmin/n=%d", tree_n);
    h.run(name, tree_n, [&] {
      auto r = core::proc_min(t, K, nullptr, nullptr, &arena);
      (void)r.components;
    });
    // The same tree randomly renumbered, as kernel_cold's trees and
    // unlabelled submissions arrive: make_tree keeps the generator's
    // parent-before-child numbering, which walks memory in order.
    util::Pcg32 rng(0x2E1Bu);
    const graph::Tree relabelled = graph::relabel_tree(rng, t);
    std::snprintf(name, sizeof name, "bottleneck_bsearch/n=%d/relabelled",
                  tree_n);
    h.run(name, tree_n, [&] {
      auto r = core::bottleneck_min_bsearch(relabelled, K, nullptr, &arena);
      (void)r.threshold;
    });
    std::snprintf(name, sizeof name, "procmin/n=%d/relabelled", tree_n);
    h.run(name, tree_n, [&] {
      auto r = core::proc_min(relabelled, K, nullptr, nullptr, &arena);
      (void)r.components;
    });
    // The BFS layout proc-min, the tree-bandwidth greedy and the
    // service's canonicalisation start from.
    std::snprintf(name, sizeof name, "lay_out_tree/n=%d/relabelled", tree_n);
    h.run(name, tree_n, [&] {
      util::ScratchFrame frame(&arena);
      const graph::TreeLayout L =
          graph::lay_out_tree(relabelled, frame.arena());
      (void)L.total;
    });
  }

  {
    double K = 0;
    graph::Tree t = make_tree(greedy_n, &K);
    std::snprintf(name, sizeof name, "tree_bandwidth_greedy/n=%d", greedy_n);
    h.run(name, greedy_n, [&] {
      auto r = core::tree_bandwidth_greedy(t, K, nullptr, &arena);
      (void)r.cut_weight;
    });
    util::Pcg32 rng(0x2E1Cu);
    const graph::Tree relabelled = graph::relabel_tree(rng, t);
    std::snprintf(name, sizeof name, "tree_bandwidth_greedy/n=%d/relabelled",
                  greedy_n);
    h.run(name, greedy_n, [&] {
      auto r = core::tree_bandwidth_greedy(relabelled, K, nullptr, &arena);
      (void)r.cut_weight;
    });
  }

  // ---- Giant instances ----------------------------------------------------
  // The /t=1 suffixes are kept so the names match the committed
  // BENCH_core.json; drop them when that file is re-recorded.
  {
    const int giant_chain_n = opt.quick ? 1 << 13 : 1 << 24;
    const int giant_tree_n = opt.quick ? 1 << 13 : 1 << 24;
    double Kc = 0, Kt = 0;
    graph::Chain gc = make_chain(giant_chain_n, 1, &Kc);
    std::snprintf(name, sizeof name, "bandwidth_temps/n=%d/mid/t=1",
                  giant_chain_n);
    h.run(name, giant_chain_n, [&] {
      auto r = core::bandwidth_min_temps(gc, Kc, nullptr,
                                         core::SearchPolicy::kBinary,
                                         nullptr, &arena);
      (void)r.cut_weight;
    });
    std::snprintf(name, sizeof name, "chain_bottleneck/n=%d/mid",
                  giant_chain_n);
    h.run(name, giant_chain_n, [&] {
      auto r = core::chain_bottleneck_min(gc, Kc, &arena);
      (void)r.threshold;
    });
    graph::Tree gt = make_tree(giant_tree_n, &Kt);
    std::snprintf(name, sizeof name, "bottleneck_bsearch/n=%d/t=1",
                  giant_tree_n);
    h.run(name, giant_tree_n, [&] {
      auto r = core::bottleneck_min_bsearch(gt, Kt, nullptr, &arena);
      (void)r.threshold;
    });
  }

  h.print_table();
  if (!json_path.empty() && !h.write_json(json_path)) return 1;
  return 0;
}
