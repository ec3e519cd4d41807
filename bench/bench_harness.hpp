// Perf-regression harness: repeatable wall-clock measurement with a
// machine-readable result file.
//
// Google-benchmark answers "how fast is this on my machine right now";
// the regression harness answers a narrower question: "did this commit
// make a tracked hot path slower than the committed baseline?"  For that
// the requirements are different — fixed repetition counts (so two runs
// do the same work), medians instead of means (robust to scheduler
// noise), a JSON artifact the tools/bench_diff comparator can diff
// against a committed baseline, and an explicit `sanitized` flag so
// ASan/TSan builds can run the suites for coverage without anyone
// mistaking their timings for real ones.
//
// Usage:
//   Harness h("core", parse_args(argc, argv, &json_path));
//   h.run("bandwidth_temps/n=262144/tight", n, [&] { ... one solve ... });
//   h.write_json(json_path);   // when --json was given
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tgp::bench {

/// One measured case.  Times are nanoseconds for a single execution of
/// the case body; `items` scales them to ns-per-item in reports.
struct CaseResult {
  std::string name;
  double items = 1;       ///< work units per run (vertices, jobs, ...)
  int reps = 0;           ///< timed repetitions (excludes warmup)
  double median_ns = 0;
  double p95_ns = 0;      ///< nearest-rank 95th percentile
  double min_ns = 0;
  /// Optional algorithmic counters (oracle calls, cache hits, ...)
  /// attached by the suite after the case ran.  Counts, not times: they
  /// are deterministic and diffable where wall clock is not.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  double ns_per_item() const { return items > 0 ? median_ns / items : 0; }
};

struct HarnessOptions {
  int warmup = 2;  ///< untimed runs before measurement
  int reps = 7;    ///< timed runs per case
  bool quick = false;  ///< suites shrink instance sizes for smoke tests
  bool trace = false;  ///< suites enable obs tracing (overhead measuring)
};

/// True when the binary was built under ASan/TSan/MSan/UBSan — timings
/// are then meaningless and the JSON is flagged so bench_diff skips it.
bool sanitizers_active();

/// Parse the shared suite flags: --json <path>, --reps <k>, --warmup <k>,
/// --quick, --trace.  Unknown flags abort with a usage message.
HarnessOptions parse_args(int argc, char** argv, std::string* json_path);

class Harness {
 public:
  explicit Harness(std::string suite, HarnessOptions opt = {});

  /// Measure `body` (a single full execution per timed rep) and record
  /// the case.  Also prints one progress line to stdout.
  void run(const std::string& name, double items,
           const std::function<void()>& body);

  /// Attach a named counter to the most recently run() case.  No-op
  /// (with a stderr warning) before the first case.
  void counter(const std::string& name, std::uint64_t value);

  /// Write all cases plus machine info as JSON.  Returns false (and
  /// prints to stderr) on I/O failure.
  bool write_json(const std::string& path) const;

  /// Human-readable summary table on stdout.
  void print_table() const;

  const std::vector<CaseResult>& results() const { return results_; }
  const HarnessOptions& options() const { return opt_; }

 private:
  std::string suite_;
  HarnessOptions opt_;
  std::vector<CaseResult> results_;
};

// ---- Reading result files (for tools/bench_diff) --------------------------

struct BenchFile {
  std::string suite;
  bool sanitized = false;
  std::vector<CaseResult> cases;
};

/// Parse a file written by write_json().  Returns nullopt (with a
/// diagnostic on stderr) when the file is missing or malformed.
std::optional<BenchFile> read_bench_json(const std::string& path);

}  // namespace tgp::bench
