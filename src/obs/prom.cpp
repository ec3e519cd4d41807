#include "obs/prom.hpp"

#include <cinttypes>
#include <cstdio>

namespace tgp::obs {

std::string prom_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prom_escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

/// `name suffix{labels[,le="le"]}`.
void append_series(std::string& out, std::string_view name,
                   std::string_view suffix, const Labels& labels,
                   std::string_view le) {
  out += name;
  out += suffix;
  if (labels.empty() && le.empty()) return;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += prom_escape(labels[i].second);
    out += '"';
  }
  if (!le.empty()) {
    if (!labels.empty()) out += ',';
    out += "le=\"";
    out += le;
    out += '"';
  }
  out += '}';
}

void append_sample(std::string& out, std::string_view name,
                   std::string_view suffix, const Labels& labels,
                   std::string_view le, std::string_view value) {
  append_series(out, name, suffix, labels, le);
  out += ' ';
  out += value;
  out += '\n';
}

void append_histogram(std::string& out, std::string_view name,
                      const Labels& labels, const LatencyHistogram& h) {
  // Elide trailing empty buckets; +Inf still closes the family.
  std::size_t last = h.counts.size();
  while (last > 0 && h.counts[last - 1] == 0) --last;

  std::uint64_t cum = 0;
  char le[32];
  char num[32];
  for (std::size_t b = 0; b < last; ++b) {
    cum += h.counts[b];
    // Upper bound of log₂ bucket b is 2^(b+1) µs, rendered in seconds.
    std::snprintf(le, sizeof(le), "%.9g",
                  static_cast<double>(std::uint64_t{1} << (b + 1)) * 1e-6);
    std::snprintf(num, sizeof(num), "%" PRIu64, cum);
    append_sample(out, name, "_bucket", labels, le, num);
  }
  std::snprintf(num, sizeof(num), "%" PRIu64, h.count);
  append_sample(out, name, "_bucket", labels, "+Inf", num);
  // The sum is whole microseconds, as the exposition always carried it.
  std::snprintf(
      num, sizeof(num), "%.9g",
      static_cast<double>(static_cast<std::uint64_t>(h.total_micros)) * 1e-6);
  append_sample(out, name, "_sum", labels, {}, num);
  std::snprintf(num, sizeof(num), "%" PRIu64, h.count);
  append_sample(out, name, "_count", labels, {}, num);
}

}  // namespace

std::string render_prometheus(const MetricsRegistry& registry) {
  std::string out;
  char num[64];
  for (const MetricsRegistry::Family& f : registry.families()) {
    if (!f.help.empty()) {
      out += "# HELP ";
      out += f.name;
      out += ' ';
      out += prom_escape_help(f.help);
      out += '\n';
    }
    out += "# TYPE ";
    out += f.name;
    out += ' ';
    out += metric_type_name(f.type);
    out += '\n';
    for (const MetricsRegistry::Sample& s : f.samples) {
      switch (f.type) {
        case MetricType::kCounter:
          std::snprintf(num, sizeof(num), "%" PRIu64, s.counter);
          append_sample(out, f.name, {}, s.labels, {}, num);
          break;
        case MetricType::kGauge:
          std::snprintf(num, sizeof(num), "%.17g", s.gauge);
          append_sample(out, f.name, {}, s.labels, {}, num);
          break;
        case MetricType::kHistogram:
          append_histogram(out, f.name, s.labels, s.histogram);
          break;
      }
    }
  }
  return out;
}

std::string prom_series(std::string_view name, const Labels& labels) {
  std::string out;
  append_series(out, name, {}, labels, {});
  return out;
}

}  // namespace tgp::obs
