// bench_diff — compare two harness JSON artifacts and gate on regression.
//
//   bench_diff --baseline BENCH_core.json --current out.json
//              [--max-regress 0.15] [--only <substring>]
//
// Matches cases by name and compares medians.  --only restricts the
// diff (and the missing-case check) to cases whose name contains the
// given substring, so a tight gate can target the stable long-running
// cases while noisy microbenches stay under a looser one.
//
// Exit status:
//   0  every matched case is within the allowed regression (or either
//      file is flagged `sanitized`, in which case timings are not
//      comparable and the diff is skipped with a notice)
//   1  at least one case regressed past --max-regress, or a baseline
//      case is missing from the current run (silently dropping a
//      tracked case would defeat the gate)
//   2  usage / unreadable input
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_harness.hpp"

namespace {

using tgp::bench::BenchFile;
using tgp::bench::CaseResult;

const CaseResult* find_case(const BenchFile& f, const std::string& name) {
  for (const CaseResult& c : f.cases)
    if (c.name == name) return &c;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, current_path, only;
  double max_regress = 0.15;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", a);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--baseline") == 0) baseline_path = value();
    else if (std::strcmp(a, "--current") == 0) current_path = value();
    else if (std::strcmp(a, "--max-regress") == 0)
      max_regress = std::atof(value());
    else if (std::strcmp(a, "--only") == 0)
      only = value();
    else {
      std::fprintf(stderr,
                   "usage: bench_diff --baseline <json> --current <json> "
                   "[--max-regress <frac>] [--only <substring>]\n");
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_diff --baseline <json> --current <json> "
                 "[--max-regress <frac>] [--only <substring>]\n");
    return 2;
  }

  auto baseline = tgp::bench::read_bench_json(baseline_path);
  auto current = tgp::bench::read_bench_json(current_path);
  if (!baseline || !current) return 2;
  if (baseline->sanitized || current->sanitized) {
    std::printf("bench_diff: %s built with sanitizers — timings are not "
                "comparable, skipping the gate\n",
                baseline->sanitized ? baseline_path.c_str()
                                    : current_path.c_str());
    return 0;
  }

  std::printf("%-48s %14s %14s %9s\n", "case", "baseline_ns", "current_ns",
              "delta");
  int regressions = 0, missing = 0;
  std::size_t matched = 0;
  for (const CaseResult& base : baseline->cases) {
    if (!only.empty() && base.name.find(only) == std::string::npos) continue;
    ++matched;
    const CaseResult* cur = find_case(*current, base.name);
    if (cur == nullptr) {
      std::printf("%-48s %14.0f %14s %9s\n", base.name.c_str(),
                  base.median_ns, "-", "MISSING");
      ++missing;
      continue;
    }
    double delta = base.median_ns > 0
                       ? cur->median_ns / base.median_ns - 1.0
                       : 0.0;
    bool bad = delta > max_regress;
    std::printf("%-48s %14.0f %14.0f %+8.1f%%%s\n", base.name.c_str(),
                base.median_ns, cur->median_ns, delta * 100,
                bad ? "  REGRESSED" : "");
    if (bad) ++regressions;
  }
  for (const CaseResult& cur : current->cases) {
    if (!only.empty() && cur.name.find(only) == std::string::npos) continue;
    if (find_case(*baseline, cur.name) == nullptr)
      std::printf("%-48s %14s %14.0f %9s\n", cur.name.c_str(), "-",
                  cur.median_ns, "NEW");
  }

  if (!only.empty() && matched == 0) {
    std::fprintf(stderr, "bench_diff: --only '%s' matched no baseline case\n",
                 only.c_str());
    return 2;
  }
  if (regressions > 0 || missing > 0) {
    std::printf("bench_diff: %d regression(s) past %.0f%%, %d missing "
                "case(s)\n",
                regressions, max_regress * 100, missing);
    return 1;
  }
  std::printf("bench_diff: all %zu cases within %.0f%%\n", matched,
              max_regress * 100);
  return 0;
}
