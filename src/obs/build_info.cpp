#include "obs/build_info.hpp"

#include <chrono>

#include "obs/trace.hpp"

namespace tgp::obs {

const char* build_version() {
#ifdef TGP_VERSION
  return TGP_VERSION;
#else
  return "0.9.0-dev";
#endif
}

const char* build_git_sha() {
#ifdef TGP_GIT_SHA
  return TGP_GIT_SHA;
#else
  return "unknown";
#endif
}

double process_start_unix_seconds() {
  static const double start = [] {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  }();
  return start;
}

void record_process_metrics(MetricsRegistry& r) {
  r.gauge("tgp_build_info",
          "Build provenance; value is always 1, identity in the labels", 1.0,
          {{"version", build_version()}, {"git_sha", build_git_sha()}});
  r.gauge("tgp_process_start_time_seconds",
          "Unix time the process initialized the obs layer",
          process_start_unix_seconds());
  r.counter("tgp_trace_dropped_total",
            "Span-ring events overwritten before export (all threads)",
            trace::dropped_total());
}

}  // namespace tgp::obs
