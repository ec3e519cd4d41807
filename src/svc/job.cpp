#include "svc/job.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/bandwidth_min.hpp"
#include "core/bottleneck_min.hpp"
#include "core/chain_bottleneck.hpp"
#include "core/proc_min.hpp"
#include "core/tree_bandwidth.hpp"
#include "graph/generators.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"

namespace tgp::svc {

const char* problem_name(Problem p) {
  switch (p) {
    case Problem::kBottleneck: return "bottleneck";
    case Problem::kProcMin: return "procmin";
    case Problem::kBandwidth: return "bandwidth";
    case Problem::kPipeline: return "pipeline";
  }
  return "?";
}

Problem parse_problem(const std::string& name) {
  if (name == "bottleneck") return Problem::kBottleneck;
  if (name == "procmin") return Problem::kProcMin;
  if (name == "bandwidth") return Problem::kBandwidth;
  if (name == "pipeline") return Problem::kPipeline;
  TGP_REQUIRE(false, "unknown problem '" + name +
                         "' (want bottleneck|procmin|bandwidth|pipeline)");
  return Problem::kBottleneck;  // unreachable
}

const char* job_status_name(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kInvalidSpec: return "invalid_spec";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kInternalError: return "internal_error";
    case JobStatus::kOverloaded: return "overloaded";
  }
  return "?";
}

JobResult failed_result(JobStatus status, std::string error) {
  JobResult r;
  r.ok = false;
  r.status = status;
  r.error = std::move(error);
  return r;
}

SpecCheck validate_spec(const JobSpec& spec) {
  auto invalid = [](std::string why) {
    return SpecCheck{JobStatus::kInvalidSpec, std::move(why)};
  };
  if ((spec.chain != nullptr) == (spec.tree != nullptr))
    return invalid("job must carry exactly one graph");
  graph::Weight max_vertex = 0;
  if (spec.chain) {
    try {
      max_vertex = spec.chain->validate();
    } catch (const std::exception& e) {
      return invalid(std::string("malformed chain: ") + e.what());
    }
  } else {
    // Trees validate connectivity and weights at construction; only the
    // derived bound is needed here.
    max_vertex = spec.tree->max_vertex_weight();
  }
  if (!std::isfinite(spec.K)) return invalid("K must be finite");
  if (spec.K < max_vertex)
    return invalid("K must be at least the maximum vertex weight");
  if (std::isnan(spec.deadline_micros) || spec.deadline_micros < 0)
    return invalid("deadline must be a non-negative number of microseconds");
  return SpecCheck{};
}

std::pair<JobStatus, std::string> classify_exception(std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const util::CancelledError& c) {
    return {c.reason == util::CancelReason::kDeadline ? JobStatus::kTimeout
                                                      : JobStatus::kCancelled,
            c.what()};
  } catch (const std::invalid_argument& i) {
    // A solver precondition that slipped past validate_spec.
    return {JobStatus::kInvalidSpec, i.what()};
  } catch (const std::exception& x) {
    return {JobStatus::kInternalError, x.what()};
  } catch (...) {
    return {JobStatus::kInternalError, "unknown exception"};
  }
}

int JobSpec::n() const {
  TGP_REQUIRE((chain != nullptr) != (tree != nullptr),
              "job must carry exactly one graph");
  return chain ? chain->n() : tree->n();
}

JobSpec JobSpec::for_chain(Problem p, graph::Weight K, graph::Chain c) {
  return for_chain(p, K, std::make_shared<const graph::Chain>(std::move(c)));
}

JobSpec JobSpec::for_tree(Problem p, graph::Weight K, graph::Tree t) {
  return for_tree(p, K, std::make_shared<const graph::Tree>(std::move(t)));
}

JobSpec JobSpec::for_chain(Problem p, graph::Weight K,
                           std::shared_ptr<const graph::Chain> c) {
  TGP_REQUIRE(c != nullptr, "null chain");
  JobSpec s;
  s.problem = p;
  s.K = K;
  s.chain = std::move(c);
  return s;
}

JobSpec JobSpec::for_tree(Problem p, graph::Weight K,
                          std::shared_ptr<const graph::Tree> t) {
  TGP_REQUIRE(t != nullptr, "null tree");
  JobSpec s;
  s.problem = p;
  s.K = K;
  s.tree = std::move(t);
  return s;
}

namespace {

// Arena whose high-water the solve accounting measures: the explicit one,
// or the thread-local fallback ScratchFrame would pick.
util::Arena& accounting_arena(util::Arena* arena) {
  return arena != nullptr ? *arena : util::ScratchFrame::thread_arena();
}

}  // namespace

CanonicalOutcome solve_canonical_chain(Problem problem,
                                       const graph::Chain& chain,
                                       graph::Weight K,
                                       const util::CancelToken* cancel,
                                       util::Arena* arena) {
  CanonicalOutcome out;
  util::Arena& acct = accounting_arena(arena);
  const std::size_t base = acct.bytes_in_use();
  acct.reset_high_water();
  {
    obs::CounterScope scope(&out.counters);
    switch (problem) {
      case Problem::kBottleneck: {
        auto r = core::chain_bottleneck_min(chain, K, arena, cancel);
        out.cut = std::move(r.cut);
        out.objective = r.threshold;
        out.components = out.cut.size() + 1;
        break;
      }
      case Problem::kProcMin: {
        auto r =
            core::proc_min(graph::path_tree(chain), K, nullptr, cancel, arena);
        out.cut = std::move(r.cut);
        out.objective = static_cast<graph::Weight>(r.components);
        out.components = r.components;
        break;
      }
      case Problem::kBandwidth: {
        auto r = core::bandwidth_min_temps(
            chain, K, nullptr, core::SearchPolicy::kBinary, cancel, arena);
        out.cut = std::move(r.cut);
        out.objective = r.cut_weight;
        out.components = out.cut.size() + 1;
        break;
      }
      case Problem::kPipeline: {
        auto r = core::bottleneck_then_proc_min(graph::path_tree(chain), K,
                                                cancel, arena);
        out.cut = std::move(r.cut);
        out.objective = r.bottleneck;
        out.components = r.components;
        break;
      }
    }
  }
  const std::size_t hw = acct.high_water_bytes();
  out.counters.arena_bytes_peak = hw > base ? hw - base : 0;
  return out;
}

CanonicalOutcome solve_canonical_tree(Problem problem,
                                      const graph::Tree& tree,
                                      graph::Weight K,
                                      const util::CancelToken* cancel,
                                      util::Arena* arena) {
  CanonicalOutcome out;
  util::Arena& acct = accounting_arena(arena);
  const std::size_t base = acct.bytes_in_use();
  acct.reset_high_water();
  {
    obs::CounterScope scope(&out.counters);
    switch (problem) {
      case Problem::kBottleneck: {
        auto r = core::bottleneck_min_bsearch(tree, K, cancel, arena);
        out.cut = std::move(r.cut);
        out.objective = r.threshold;
        out.components = out.cut.size() + 1;
        break;
      }
      case Problem::kProcMin: {
        auto r = core::proc_min(tree, K, nullptr, cancel, arena);
        out.cut = std::move(r.cut);
        out.objective = static_cast<graph::Weight>(r.components);
        out.components = r.components;
        break;
      }
      case Problem::kBandwidth: {
        auto r = core::tree_bandwidth_greedy(tree, K, cancel, arena);
        out.cut = std::move(r.cut);
        out.objective = r.cut_weight;
        out.components = out.cut.size() + 1;
        break;
      }
      case Problem::kPipeline: {
        auto r = core::bottleneck_then_proc_min(tree, K, cancel, arena);
        out.cut = std::move(r.cut);
        out.objective = r.bottleneck;
        out.components = r.components;
        break;
      }
    }
  }
  const std::size_t hw = acct.high_water_bytes();
  out.counters.arena_bytes_peak = hw > base ? hw - base : 0;
  return out;
}

namespace {

void fill_payload(JobResult& r, const CanonicalOutcome& o) {
  r.ok = true;
  r.status = JobStatus::kOk;
  r.objective = o.objective;
  r.components = o.components;
  r.counters = o.counters;
}

}  // namespace

void apply_outcome(JobResult& r, const CanonicalOutcome& o,
                   const graph::ChainOrientation& orientation) {
  fill_payload(r, o);
  // A reversed chain's map, m−1−e, turns an ascending cut into a
  // descending one, so reversing it is the sort; an unsorted cut still
  // gets one.
  std::vector<int>& out = r.cut.edges;
  out.clear();
  for (int e : o.cut.edges) out.push_back(orientation.map_edge_back(e));
  if (orientation.reversed) std::reverse(out.begin(), out.end());
  if (!std::is_sorted(out.begin(), out.end()))
    std::sort(out.begin(), out.end());
}

void apply_outcome(JobResult& r, const CanonicalOutcome& o,
                   const graph::TreeKey& key) {
  fill_payload(r, o);
  // Mark the cut's submitted edges, then sweep all m edges in index
  // order: O(m + cut) without a sort, and without a branch in the sweep.
  // The sweep finds as many edges as the cut lists only if each was
  // marked exactly once.
  const std::vector<int>& in = o.cut.edges;
  const std::size_t m = key.orig_edge.size();
  util::ScratchFrame frame(nullptr);
  unsigned char* marked = frame->alloc_filled<unsigned char>(m, 0);
  for (int e : in) {
    TGP_ENSURE(0 <= e && static_cast<std::size_t>(e) < m,
               "cut edge out of range");
    marked[key.map_edge_back(e)] = 1;
  }
  std::vector<int>& out = r.cut.edges;
  out.resize(in.size() + 1);  // the sweep writes one slot past the last
  std::size_t k = 0;
  for (std::size_t e = 0; e < m; ++e) {
    out[k] = static_cast<int>(e);
    k += marked[e];
  }
  TGP_ENSURE(k == in.size(), "cut lists an edge more than once");
  out.resize(k);
}

JobResult execute_job(const JobSpec& spec, const util::CancelToken* cancel) {
  JobResult r;
  if (spec.is_chain()) {
    graph::CanonicalChain cc = graph::canonical_chain(*spec.chain);
    CanonicalOutcome o =
        solve_canonical_chain(spec.problem, cc.chain, spec.K, cancel);
    apply_outcome(r, o, cc);
  } else {
    TGP_REQUIRE(spec.tree != nullptr, "job must carry a graph");
    graph::CanonicalTree ct = graph::canonical_tree(*spec.tree);
    CanonicalOutcome o =
        solve_canonical_tree(spec.problem, ct.tree, spec.K, cancel);
    apply_outcome(r, o, ct);
  }
  return r;
}

JobResult execute_job_captured(const JobSpec& spec,
                               const util::CancelToken* cancel) {
  SpecCheck check = validate_spec(spec);
  if (!check.ok()) return failed_result(check.status, std::move(check.error));
  try {
    return execute_job(spec, cancel);
  } catch (...) {
    auto [status, error] = classify_exception(std::current_exception());
    return failed_result(status, std::move(error));
  }
}

}  // namespace tgp::svc
