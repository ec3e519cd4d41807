// Service batch: drive the partition service runtime programmatically.
//
// Builds a small mixed batch of jobs — the same chain presented twice
// (forwards and reversed), a random tree and a relabeled copy of it —
// submits everything to a PartitionService worker pool and shows that
// (a) results come back in submission order regardless of thread count,
// (b) equivalent presentations are served from the canonical-graph memo
// cache, and (c) a cache hit is bit-identical to direct recomputation.
//
//   ./service_batch [--jobs 24] [--threads 2] [--seed 1]
#include <cstdio>

#include "graph/generators.hpp"
#include "obs/registry.hpp"
#include "svc/service.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tgp;
  util::ArgParser args(argc, argv);
  args.describe("jobs", "number of jobs in the batch (default 24)")
      .describe("threads", "worker threads (default 2)")
      .describe("seed", "rng seed (default 1)");
  if (args.has("help")) {
    std::fputs(
        args.help("service_batch: run jobs through the partition service")
            .c_str(),
        stdout);
    return 0;
  }
  args.check_unknown();

  const int jobs = static_cast<int>(args.get_int("jobs", 24));
  const int threads = static_cast<int>(args.get_int("threads", 2));
  util::Pcg32 rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  // Base graphs: one chain, one tree.  Every job reuses one of them —
  // half the time in a re-presented form (reversed chain / relabeled
  // tree), so the cache must match by canonical fingerprint, not by
  // pointer or presentation.
  graph::Chain chain = graph::random_chain(rng, 40,
                                           graph::WeightDist::uniform(1, 6),
                                           graph::WeightDist::uniform(1, 9));
  graph::Tree tree = graph::random_tree(rng, 40,
                                        graph::WeightDist::uniform(1, 6),
                                        graph::WeightDist::uniform(1, 9));
  const double chain_k = 0.25 * chain.total_vertex_weight();
  const double tree_k =
      tree.max_vertex_weight() +
      0.2 * (tree.total_vertex_weight() - tree.max_vertex_weight());

  std::vector<svc::JobSpec> batch;
  for (int i = 0; i < jobs; ++i) {
    auto problem = static_cast<svc::Problem>(i % svc::kProblemCount);
    if (i % 2 == 0) {
      graph::Chain c = (i % 4 == 0) ? chain : graph::reversed_chain(chain);
      batch.push_back(svc::JobSpec::for_chain(problem, chain_k, c));
    } else {
      graph::Tree t = (i % 4 == 1) ? tree : graph::relabel_tree(rng, tree);
      batch.push_back(svc::JobSpec::for_tree(problem, tree_k, t));
    }
  }

  svc::ServiceConfig config;
  config.threads = threads;
  config.cache_bytes = std::size_t{8} << 20;
  svc::PartitionService service(config);
  std::vector<svc::JobResult> results = service.run_batch(batch);

  util::Table t({"job", "graph", "problem", "objective", "parts", "cut",
                 "cache", "== direct"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const svc::JobResult& r = results[i];
    // The service promise: cached or not, the result equals what a
    // direct (queue-free, cache-free) solver call produces.
    svc::JobResult direct = svc::execute_job_captured(batch[i]);
    bool same = r.ok == direct.ok && r.cut.edges == direct.cut.edges &&
                r.objective == direct.objective &&
                r.components == direct.components;
    t.row()
        .cell(static_cast<int>(i))
        .cell(batch[i].is_chain() ? "chain" : "tree")
        .cell(svc::problem_name(batch[i].problem))
        .cell(r.objective, 2)
        .cell(r.components)
        .cell(r.cut.size())
        .cell(r.cache_hit ? "hit" : "miss")
        .cell(same ? "yes" : "NO");
    if (!same) {
      std::fprintf(stderr, "job %zu diverged from direct computation\n", i);
      return 1;
    }
  }
  t.print();

  obs::MetricsRegistry metrics;
  service.metrics().record(metrics);
  std::printf("\n%s\n", obs::render_text(metrics, "service metrics").c_str());
  return 0;
}
