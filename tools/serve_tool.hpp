// The engine behind the tgp_serve command-line tool.
//
// Separated from main() so the test suite can drive it end to end: parse
// flags, load or synthesize a job batch, run it through the partition
// service runtime (svc/service.hpp) and print a deterministic results
// table (stdout) plus a metrics snapshot (stderr — timing-dependent, so
// kept out of the byte-comparable stream).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/weight.hpp"
#include "svc/job.hpp"

namespace tgp::tools {

/// Per-job columns echoed into the results table, captured before the
/// specs move into the service (which consumes them).
struct JobEcho {
  std::string kind;     ///< "chain" | "tree"
  std::string problem;  ///< svc::problem_name
  int n = 0;
  graph::Weight K = 0;
};

std::vector<JobEcho> make_echo(const std::vector<svc::JobSpec>& specs);

/// The deterministic per-job results table — shared verbatim by
/// tgp_serve (in-process) and tgp_client (over a socket), which is what
/// makes their stdout byte-comparable in the CI equivalence check.
std::string render_results_table(const std::vector<JobEcho>& echo,
                                 const std::vector<svc::JobResult>& results);

/// Map a finished batch to the tool exit code, emitting a one-line
/// summary on `err` for every nonzero exit: 3 when any job failed or a
/// row was skipped ("batch degraded: ..."), 4 when the only failures
/// were admission-control sheds ("batch shed: ...").
int batch_exit_report(const std::vector<svc::JobResult>& results,
                      int rows_skipped, std::ostream& err);

/// Run the serve tool.  `args` are argv[1:]; results go to `out`,
/// diagnostics and metrics to `err`.  Returns the process exit code.
int run_serve_tool(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err);

/// The --help text.
std::string serve_tool_help();

/// Parse a job file: one CSV line per job, `problem,K,source`, where
/// problem ∈ {bottleneck, procmin, bandwidth, pipeline}; K is a number or
/// "P%" (K = max vertex weight + P/100 · slack to the total weight); and
/// source is `file:PATH` (a tgp-chain/tgp-tree file) or
/// `gen:KIND:n=N:seed=S` with KIND ∈ {chain, tree, binary, star}.
/// '#' lines and blank lines are skipped.  Identical sources share one
/// in-memory graph.  Throws std::invalid_argument on malformed input.
std::vector<svc::JobSpec> parse_job_file(std::istream& in);

/// Lenient variant used by the tool itself: a malformed row is skipped
/// with a line-numbered warning on `warn` instead of aborting the whole
/// batch, so one bad row cannot take down the jobs around it.
struct ParsedJobs {
  std::vector<svc::JobSpec> specs;
  int rows_skipped = 0;
};
ParsedJobs parse_job_file_lenient(std::istream& in, std::ostream& warn);

/// Synthesize a mixed chain/tree workload of `count` jobs.  A fraction
/// `dup_frac` of jobs repeats an earlier job's (graph, problem, K) —
/// half of those re-presented (reversed chain / relabeled tree) so the
/// canonical fingerprint, not pointer identity, has to find the match.
std::vector<svc::JobSpec> generate_workload(int count, std::uint64_t seed,
                                            double dup_frac);

}  // namespace tgp::tools
