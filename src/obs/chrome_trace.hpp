// Chrome trace_event JSON export for trace snapshots.
//
// Output is the "JSON Object Format" understood by chrome://tracing and
// Perfetto: a `traceEvents` array of `ph:"X"` complete events (ts/dur in
// microseconds, nanosecond fractions preserved as decimals) plus
// `ph:"M"` thread_name metadata records for named threads, and a
// `tgp_dropped` top-level field recording ring overwrites.
//
// For fleet stitching (tools/trace_tool --input a.json --input b.json)
// each file can carry a ChromeTraceMeta: the process name, the wall
// clock at trace-epoch 0 (`tgp_epoch_unix_us`), and a measured clock
// offset against the fleet reference (`tgp_clock_offset_us`, from ping
// RTT midpoints).  Events recorded under a sampled TraceContext carry
// string args `tgp_trace` / `tgp_span` / `tgp_parent` (hex ids) that the
// stitcher and scripts/validate_trace.py key on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/trace.hpp"

namespace tgp::obs {

/// Per-file stitching metadata for multi-process merges.
struct ChromeTraceMeta {
  std::string process_name;         ///< "client", "router", "shard-0", ...
  std::int64_t epoch_unix_us = 0;   ///< wall clock at trace-epoch 0
  /// Wall-clock skew of this process relative to the fleet reference
  /// (positive = this clock runs behind), measured from ping RTTs;
  /// 0 when unmeasured (same-host processes need none).
  std::int64_t clock_offset_us = 0;
};

/// Serialize `snap` as Chrome trace JSON.  Events keep snapshot order
/// (start-time sorted); all events share pid 1.  When `meta` is given,
/// the file additionally carries the process name (as process_name
/// metadata and a `tgp_process` field) and the clock-alignment fields.
void write_chrome_trace(std::ostream& out, const trace::TraceSnapshot& snap);
void write_chrome_trace(std::ostream& out, const trace::TraceSnapshot& snap,
                        const ChromeTraceMeta& meta);

/// Append `s` to `out` as a quoted JSON string (quote, backslash and
/// control characters escaped).  Shared with the metrics JSON walk.
void append_json_string(std::string& out, std::string_view s);

}  // namespace tgp::obs
