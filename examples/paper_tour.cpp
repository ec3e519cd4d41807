// A guided tour: every algorithm of the paper on one instance, each
// output labelled with the section it implements, ending with a Gantt
// chart of the partitioned pipeline executing on the simulated machine.
//
//   ./paper_tour [--n 16] [--k 14] [--seed 2]
#include <algorithm>
#include <cstdio>

#include "core/bandwidth_min.hpp"
#include "core/chain_bottleneck.hpp"
#include "core/duals.hpp"
#include "core/knapsack.hpp"
#include "core/proc_min.hpp"
#include "graph/generators.hpp"
#include "sim/pipeline_sim.hpp"
#include "util/argparse.hpp"
#include "util/gantt.hpp"

int main(int argc, char** argv) {
  using namespace tgp;
  util::ArgParser args(argc, argv);
  args.describe("n", "tasks (default 16)")
      .describe("k", "execution-time bound K (default 14)")
      .describe("seed", "rng seed (default 2)");
  if (args.has("help")) {
    std::fputs(args.help("paper_tour: every algorithm, one instance")
                   .c_str(),
               stdout);
    return 0;
  }
  args.check_unknown();
  const int n = static_cast<int>(args.get_int("n", 16));
  const double K = args.get_double("k", 14);
  util::Pcg32 rng(static_cast<std::uint64_t>(args.get_int("seed", 2)));

  graph::Chain chain = graph::random_chain(
      rng, n, graph::WeightDist::uniform(1, 6),
      graph::WeightDist::uniform(1, 9));
  graph::Tree tree = graph::path_tree(chain);
  std::printf("Instance: chain of %d tasks, total work %.1f, K = %.1f\n\n",
              n, chain.total_vertex_weight(), K);

  std::puts("— §2.3 / Algorithm 4.1: bandwidth minimization, "
            "O(n + p log q) —");
  core::BandwidthInstrumentation instr;
  auto bw = core::bandwidth_min_temps(chain, K, &instr);
  std::printf("  cut weight %.1f with %d edges; p = %d prime subpaths, "
              "q = %.2f, TEMP_S peak %d rows\n",
              bw.cut_weight, bw.cut.size(), instr.p, instr.q_avg,
              instr.temps.max_rows);

  std::puts("\n— §2.1 / Algorithm 2.1: bottleneck minimization —");
  auto bn = core::chain_bottleneck_min(chain, K);
  std::printf("  worst crossing edge %.1f (cut %d edges)\n", bn.threshold,
              bn.cut.size());

  std::puts("\n— §2.2 / Algorithm 2.2: processor minimization —");
  auto pm = core::proc_min(tree, K);
  std::printf("  %d processors suffice for the deadline\n", pm.components);

  std::puts("\n— §2.2 pipeline: bottleneck, then fewest processors —");
  auto piped = core::bottleneck_then_proc_min(tree, K);
  std::printf("  %d components at bottleneck %.1f\n", piped.components,
              piped.bottleneck);

  std::puts("\n— dual: fewest-K for a fixed machine (m = 4) —");
  auto dual = core::min_bound_for_processors_chain(chain, 4);
  std::printf("  minimum achievable bound K* = %.1f\n", dual.bound);

  std::puts("\n— §2.3 Theorem 1: why trees are hard —");
  core::KnapsackInstance inst{{3, 5, 7}, {4, 6, 8}, 9};
  auto red = core::knapsack_to_star(inst);
  auto cut = core::star_bandwidth_min(red.star, red.k2);
  std::printf("  a 3-item knapsack became a star whose optimal cut keeps "
              "items {");
  for (int i : core::kept_items(red, cut)) std::printf(" %d", i);
  std::puts(" } — solving it solved the knapsack");

  std::puts("\n— §3: execute the bandwidth-minimal partition (shared "
            "bus) —");
  arch::Machine m{8, 1.0, 3.0};
  auto mapping = arch::map_chain_partition(chain, bw.cut, m);
  std::vector<sim::TraceEntry> trace;
  auto stats = simulate_pipeline(chain, mapping, m, 6, &trace);
  double ii = sim::analytic_initiation_interval(chain, mapping, m);
  std::printf("  6 iterations: makespan %.1f (analytic floor %.1f/iter), "
              "bus utilization %.0f%%\n\n",
              stats.makespan, ii, 100 * stats.bus_utilization);

  int procs_used = 0;
  for (const auto& e : trace) procs_used = std::max(procs_used, e.processor + 1);
  std::vector<util::GanttRow> rows(static_cast<std::size_t>(procs_used));
  for (int p = 0; p < procs_used; ++p)
    rows[static_cast<std::size_t>(p)].label.append("P").append(
        std::to_string(p));
  for (const auto& e : trace)
    rows[static_cast<std::size_t>(e.processor)].bars.push_back(
        {e.start, e.end, static_cast<char>('A' + e.iteration % 26)});
  std::fputs(util::render_gantt(rows, stats.makespan, 72).c_str(), stdout);
  std::puts("\n(letters = pipeline iterations; dots = idle)");
  return 0;
}
