#include "core/bandwidth_min.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/cut_arena.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace tgp::core {

double BandwidthInstrumentation::p_log_q() const {
  if (p == 0) return 0.0;
  return p * std::log2(std::max(2.0, q_avg));
}

double BandwidthInstrumentation::n_log_n() const {
  if (n <= 1) return 0.0;
  return n * std::log2(static_cast<double>(n));
}

BandwidthResult bandwidth_min_temps(const graph::Chain& chain,
                                    graph::Weight K,
                                    BandwidthInstrumentation* instr,
                                    SearchPolicy policy,
                                    const util::CancelToken* cancel,
                                    util::Arena* scratch) {
  TGP_SPAN("core", "bandwidth_min");
  obs::SolveCounters* oc = obs::active_counters();
  util::ScratchFrame frame(scratch);
  const graph::CsrView g = graph::csr_from_chain(chain, frame.arena());
  TGP_REQUIRE(K >= g.max_vertex_weight,
              "K must be at least the maximum vertex weight");

  PrimeSubpath* primes =
      frame->alloc_array<PrimeSubpath>(static_cast<std::size_t>(g.n));
  const int p = prime_subpaths_into(g, K, primes, cancel);
  if (instr) {
    *instr = {};
    instr->n = g.n;
    instr->p = p;
  }
  if (oc) oc->prime_subpaths += static_cast<std::uint64_t>(p);
  if (p == 0) {
    // No critical subpath: the whole chain already fits in K.
    return {graph::Cut{}, 0};
  }

  ReducedEdge* edges =
      frame->alloc_array<ReducedEdge>(static_cast<std::size_t>(g.m));
  const int r = reduce_edges_into(g, primes, p, edges, cancel);
  if (oc) oc->nonredundant_edges += static_cast<std::uint64_t>(r);
  if (instr) {
    instr->r = r;
    std::uint64_t qsum = 0;
    for (int i = 0; i < r; ++i) {
      qsum += static_cast<std::uint64_t>(edges[i].prime_count());
      instr->q_max = std::max(instr->q_max, edges[i].prime_count());
    }
    instr->q_avg = static_cast<double>(qsum) / r;
  }

  CutArena arena(r, frame.arena());  // one cons() per reduced edge
  TempsQueue q(r + 2, frame.arena());
  // TEMP_S stats feed two consumers: the caller's instrumentation block
  // and the thread's active SolveCounters.  Collect them whenever either
  // is listening.
  TempsStats local_stats;
  TempsStats* stats = instr ? &instr->temps : (oc ? &local_stats : nullptr);
  int covered_max = -1;  // highest prime index any processed edge reached
  // The last prime closed so far (its R) with its optimum: the paper's
  // β(S_{i+1}) and S_{i+1} for i = closed.last_prime.  Edges arrive with
  // non-decreasing first_prime, so the only optimum the loop ever reads
  // is the one it closed last.
  TempsRow closed{-1, -1, 0, CutArena::kEmpty};

  for (int ei = 0; ei < r; ++ei) {
    const ReducedEdge& e = edges[ei];
    if (cancel && ei % util::kPollStride == 0) cancel->poll();
    // Step 2: primes that do not contain this edge are complete; retire
    // them from the queue front.
    if (std::optional<TempsRow> c = q.close_below(e.first_prime)) closed = *c;

    // W_i = β_i + β(S_{γ_i});  γ_i is the last prime before the first one
    // containing this edge.
    graph::Weight w = e.weight;
    int parent = CutArena::kEmpty;
    if (e.first_prime > 0) {
      TGP_ENSURE(closed.last_prime == e.first_prime - 1,
                 "prefix optimum not yet closed");
      w += closed.w;
      parent = closed.solution;
    }
    int sid = arena.cons(e.edge, parent);

    // Step 2a: find the first row whose minimum is no better than W_i;
    // every row from there on is dominated by this edge.
    int idx = policy == SearchPolicy::kGallop
                  ? q.lower_bound_w_gallop(w, stats)
                  : q.lower_bound_w(w, stats);
    if (idx < q.rows()) {
      int first = q.row(idx).first_prime;
      q.collapse_from(idx, {first, e.last_prime, w, sid});
    } else if (e.last_prime > covered_max) {
      // W_i is worse than every current minimum, but this edge opens new
      // prime subpaths for which it is the only candidate so far.
      q.push_back({covered_max + 1, e.last_prime, w, sid});
    }
    covered_max = std::max(covered_max, e.last_prime);
    q.sample(stats);
  }

  // All edges processed: the remaining active primes (…, p−1) close with
  // the queue's current minima; the answer is S_p (paper: TEMP_S(4, BOTTOM)).
  if (std::optional<TempsRow> c = q.close_below(p)) closed = *c;
  TGP_ENSURE(closed.last_prime == p - 1, "final prime never closed");

  if (oc) {
    // Each reduced edge is one W_i evaluation — the unit step of Alg 4.1's
    // O(n + p log q) bound (the step-2a search cost lands in *_probes).
    oc->oracle_calls += static_cast<std::uint64_t>(r);
    if (stats) {
      if (policy == SearchPolicy::kGallop)
        oc->gallop_probes += stats->search_steps;
      else
        oc->bsearch_probes += stats->search_steps;
      if (static_cast<std::uint64_t>(stats->max_rows) > oc->temps_peak_rows)
        oc->temps_peak_rows = static_cast<std::uint64_t>(stats->max_rows);
    }
  }

  BandwidthResult result;
  arena.materialize_into(closed.solution, result.cut.edges);
  // The list comes out most recent first, and each node's parent solution
  // holds only edges cons'd before it (smaller index: edges arrive in
  // index order), so it is strictly descending and a reverse is exactly
  // Cut::canonical().  The postcondition loop below checks the order.
  std::reverse(result.cut.edges.begin(), result.cut.edges.end());
  result.cut_weight = closed.w;

  // Postcondition probes over the prefix view — allocation-free versions
  // of chain_cut_feasible / chain_cut_weight.
  {
    const graph::Weight limit =
        K + graph::load_epsilon(g.total_vertex_weight(), g.n);
    int start = 0;
    bool feasible = true;
    for (int e : result.cut.edges) {
      TGP_ENSURE(e >= start, "bandwidth_min_temps cut is not ascending");
      if (g.window(start, e) > limit) feasible = false;
      start = e + 1;
    }
    if (g.window(start, g.n - 1) > limit) feasible = false;
    TGP_ENSURE(feasible, "bandwidth_min_temps produced an infeasible cut");
    graph::Weight recomputed = 0;
    for (int e : result.cut.edges) recomputed += g.edge_weight[e];
    TGP_ENSURE(std::abs(recomputed - result.cut_weight) <=
                   1e-9 * (1.0 + std::abs(result.cut_weight)),
               "recorded cut weight disagrees with the cut");
  }
  return result;
}

}  // namespace tgp::core
