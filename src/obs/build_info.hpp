// Build/process provenance: version, git sha, process start time.
//
// Every metrics exporter in the repo (tgp_serve --metrics-out, the
// backend's /metrics, the router's aggregated /metrics) records these
// through record_process_metrics(), and bench_harness stamps them into
// BENCH JSON artifacts so a committed baseline records exactly which
// build produced it.  The values come from TGP_VERSION / TGP_GIT_SHA
// compile definitions (set by src/obs/CMakeLists.txt from `git
// rev-parse`); unset builds report "unknown" rather than failing.
#pragma once

#include "obs/registry.hpp"

namespace tgp::obs {

/// Semantic-ish version string baked at configure time ("0.9.0-dev"
/// fallback when the build system did not provide one).
const char* build_version();

/// Short git commit sha at configure time, or "unknown".
const char* build_git_sha();

/// Unix seconds when this process initialized the obs layer (first call
/// wins — effectively process start for any binary that exports metrics).
double process_start_unix_seconds();

/// Record the process-wide families every exporter shares:
///   tgp_build_info{version,git_sha} 1
///   tgp_process_start_time_seconds
///   tgp_trace_dropped_total        (span-ring overwrites, obs/trace)
void record_process_metrics(MetricsRegistry& registry);

}  // namespace tgp::obs
