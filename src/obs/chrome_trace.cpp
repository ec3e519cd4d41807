#include "obs/chrome_trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

namespace tgp::obs {

namespace {

// ts/dur are microseconds in the trace format; emit ns-resolution values
// as "123.456" without going through double formatting.
void append_micros(std::string& out, std::int64_t ns) {
  if (ns < 0) ns = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  out += buf;
}

void append_hex_id(std::string& out, std::uint64_t hi, std::uint64_t lo) {
  char buf[40];
  if (hi != 0) {
    std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "%016" PRIx64 "\"", hi,
                  lo);
  } else {
    std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", lo);
  }
  out += buf;
}

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void write_chrome_trace(std::ostream& out,
                        const trace::TraceSnapshot& snap) {
  write_chrome_trace(out, snap, ChromeTraceMeta{});
}

void write_chrome_trace(std::ostream& out, const trace::TraceSnapshot& snap,
                        const ChromeTraceMeta& meta) {
  std::string buf;
  buf.reserve(snap.events.size() * 128 + 512);
  buf += "{\"traceEvents\":[";
  bool first = true;
  char num[48];

  if (!meta.process_name.empty()) {
    first = false;
    buf += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"name\":\"process_name\",\"args\":{\"name\":";
    append_json_string(buf, meta.process_name.c_str());
    buf += "}}";
  }

  for (const auto& [tid, name] : snap.threads) {
    if (name.empty()) continue;
    if (!first) buf += ',';
    first = false;
    buf += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    std::snprintf(num, sizeof(num), "%u", tid);
    buf += num;
    buf += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(buf, name.c_str());
    buf += "}}";
  }

  for (const auto& ev : snap.events) {
    if (!first) buf += ',';
    first = false;
    buf += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    std::snprintf(num, sizeof(num), "%u", ev.tid);
    buf += num;
    buf += ",\"cat\":";
    append_json_string(buf, ev.cat ? ev.cat : "tgp");
    buf += ",\"name\":";
    append_json_string(buf, ev.name ? ev.name : "?");
    buf += ",\"ts\":";
    append_micros(buf, ev.start_ns);
    buf += ",\"dur\":";
    append_micros(buf, ev.dur_ns);
    const bool has_ids = (ev.trace_hi | ev.trace_lo) != 0;
    if (ev.args[0].name != nullptr || has_ids) {
      buf += ",\"args\":{";
      bool first_arg = true;
      for (const TraceArg& a : ev.args) {
        if (a.name == nullptr) continue;
        if (!first_arg) buf += ',';
        first_arg = false;
        append_json_string(buf, a.name);
        buf += ':';
        std::snprintf(num, sizeof(num), "%" PRId64, a.value);
        buf += num;
      }
      if (has_ids) {
        if (!first_arg) buf += ',';
        buf += "\"tgp_trace\":";
        append_hex_id(buf, ev.trace_hi, ev.trace_lo);
        buf += ",\"tgp_span\":";
        append_hex_id(buf, 0, ev.span_id);
        if (ev.parent_span != 0) {
          buf += ",\"tgp_parent\":";
          append_hex_id(buf, 0, ev.parent_span);
        }
      }
      buf += '}';
    }
    buf += '}';
  }

  buf += "],\"displayTimeUnit\":\"ms\"";
  if (!meta.process_name.empty()) {
    buf += ",\"tgp_process\":";
    append_json_string(buf, meta.process_name.c_str());
  }
  if (meta.epoch_unix_us != 0) {
    buf += ",\"tgp_epoch_unix_us\":";
    std::snprintf(num, sizeof(num), "%" PRId64, meta.epoch_unix_us);
    buf += num;
  }
  if (meta.clock_offset_us != 0) {
    buf += ",\"tgp_clock_offset_us\":";
    std::snprintf(num, sizeof(num), "%" PRId64, meta.clock_offset_us);
    buf += num;
  }
  buf += ",\"tgp_dropped\":";
  std::snprintf(num, sizeof(num), "%" PRIu64, snap.dropped);
  buf += num;
  buf += "}\n";
  out << buf;
}

}  // namespace tgp::obs
