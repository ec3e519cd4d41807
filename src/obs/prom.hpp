// Prometheus text exposition (version 0.0.4) of a MetricsRegistry.
//
// The one place that knows the exposition grammar: svc, net and the
// tools record into an obs::MetricsRegistry and call render_prometheus()
// for `--metrics-format prom`, `GET /metrics` and `tgp_client --metrics`.
// Each family renders as one block — `# HELP` (when the help text is
// non-empty), `# TYPE`, then its samples in record order:
//   counters  `name{labels} 123`
//   gauges    `name{labels} %.17g`
//   log₂ histograms as cumulative `name_bucket{labels,le="..."}` series
//   in *seconds* (le rendered %.9g, trailing empty buckets elided, a
//   `+Inf` bucket always closing), then `name_sum` (seconds, %.9g, whole
//   microseconds) and `name_count`.
#pragma once

#include <string>
#include <string_view>

#include "obs/registry.hpp"

namespace tgp::obs {

std::string render_prometheus(const MetricsRegistry& registry);

/// `name{k="v",...}` with escaped values (bare `name` without labels).
std::string prom_series(std::string_view name, const Labels& labels);

/// Escape a label value per the exposition format (backslash, quote, \n).
std::string prom_escape(std::string_view value);

/// Escape HELP text per the exposition format (backslash and \n only —
/// quotes are legal in help text).
std::string prom_escape_help(std::string_view text);

}  // namespace tgp::obs
