#include "obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>

#include "obs/chrome_trace.hpp"
#include "obs/prom.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace tgp::obs {

int LatencyHistogram::bucket_of(double micros) {
  if (!(micros >= 1.0)) return 0;
  std::uint64_t us = static_cast<std::uint64_t>(micros);
  int b = 63 - std::countl_zero(us);
  return std::min(b, kBuckets - 1);
}

double LatencyHistogram::bucket_upper(int b) {
  return std::ldexp(1.0, b + 1);  // 2^(b+1) µs
}

void LatencyHistogram::record(double micros) {
  ++counts[static_cast<std::size_t>(bucket_of(micros))];
  ++count;
  total_micros += micros;
  max_micros = std::max(max_micros, micros);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (int b = 0; b < kBuckets; ++b)
    counts[static_cast<std::size_t>(b)] +=
        other.counts[static_cast<std::size_t>(b)];
  count += other.count;
  total_micros += other.total_micros;
  max_micros = std::max(max_micros, other.max_micros);
}

double LatencyHistogram::quantile_upper_micros(double q) const {
  if (count == 0 || std::isnan(q)) return 0;
  std::uint64_t target;
  if (q >= 1.0) {
    target = count;  // exact: no float product to overshoot
  } else if (q <= 0.0) {
    target = 1;
  } else {
    // Smallest rank k with k ≥ q·count.  The product is computed in
    // double, which can round to just above an integer (0.07 * 100 →
    // 7.000000000000001); back off by a scale-relative tolerance before
    // ceil so an exact boundary selects its own bucket.
    const double scaled = q * static_cast<double>(count);
    target = static_cast<std::uint64_t>(
        std::ceil(scaled - 1e-9 * std::max(1.0, scaled)));
    target = std::min(std::max<std::uint64_t>(target, 1), count);
  }
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts[static_cast<std::size_t>(b)];
    if (seen >= target) return bucket_upper(b);
  }
  return bucket_upper(kBuckets - 1);
}

const char* metric_type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

MetricsRegistry::Sample& MetricsRegistry::record(std::string_view name,
                                                 std::string_view help,
                                                 MetricType type,
                                                 Labels labels) {
  auto it = std::find_if(families_.begin(), families_.end(),
                         [&](const Family& f) { return f.name == name; });
  if (it == families_.end()) {
    families_.push_back(Family{std::string(name), std::string(help), type, {}});
    it = families_.end() - 1;
  }
  TGP_REQUIRE(it->type == type, "metric recorded under two types");
  if (it->help.empty()) it->help = help;
  it->samples.push_back(Sample{std::move(labels), 0, 0, {}});
  return it->samples.back();
}

void MetricsRegistry::counter(std::string_view name, std::string_view help,
                              std::uint64_t value, Labels labels) {
  record(name, help, MetricType::kCounter, std::move(labels)).counter = value;
}

void MetricsRegistry::gauge(std::string_view name, std::string_view help,
                            double value, Labels labels) {
  record(name, help, MetricType::kGauge, std::move(labels)).gauge = value;
}

void MetricsRegistry::histogram(std::string_view name, std::string_view help,
                                const LatencyHistogram& value,
                                Labels labels) {
  record(name, help, MetricType::kHistogram, std::move(labels)).histogram =
      value;
}

void MetricsRegistry::merge(const MetricsRegistry& other,
                            const Labels& extra) {
  for (const Family& src : other.families_) {
    const Family* mine = family(src.name);
    if (mine != nullptr && mine->type != src.type) continue;
    for (const Sample& s : src.samples) {
      // Keys the sample already binds win: a backend that stamps its own
      // shard label keeps it, and no series binds a key twice.
      Labels labels;
      for (const auto& kv : extra) {
        const bool bound =
            std::any_of(s.labels.begin(), s.labels.end(),
                        [&](const auto& own) { return own.first == kv.first; });
        if (!bound) labels.push_back(kv);
      }
      labels.insert(labels.end(), s.labels.begin(), s.labels.end());
      Sample& copy = record(src.name, src.help, src.type, std::move(labels));
      copy.counter = s.counter;
      copy.gauge = s.gauge;
      copy.histogram = s.histogram;
    }
  }
}

const MetricsRegistry::Family* MetricsRegistry::family(
    std::string_view name) const {
  for (const Family& f : families_)
    if (f.name == name) return &f;
  return nullptr;
}

std::optional<double> MetricsRegistry::value(std::string_view name,
                                             const Labels& labels) const {
  const Family* f = family(name);
  if (f == nullptr || f->type == MetricType::kHistogram) return std::nullopt;
  for (const Sample& s : f->samples) {
    if (s.labels != labels) continue;
    return f->type == MetricType::kCounter ? static_cast<double>(s.counter)
                                           : s.gauge;
  }
  return std::nullopt;
}

namespace {

/// Shortest decimal that reads back as `v`.
std::string shortest(double v) {
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void append_json_number(std::string& out, double v) {
  out += std::isfinite(v) ? shortest(v) : "null";
}

bool is_zero(MetricType type, const MetricsRegistry::Sample& s) {
  switch (type) {
    case MetricType::kCounter: return s.counter == 0;
    case MetricType::kGauge: return s.gauge == 0;
    case MetricType::kHistogram: return s.histogram.count == 0;
  }
  return true;
}

}  // namespace

std::string render_json(const MetricsRegistry& registry) {
  std::string out = "{";
  for (const MetricsRegistry::Family& f : registry.families()) {
    if (out.size() > 1) out += ',';
    append_json_string(out, f.name);
    out += ":{\"type\":\"";
    out += metric_type_name(f.type);
    out += "\",\"help\":";
    append_json_string(out, f.help);
    out += ",\"samples\":[";
    for (std::size_t i = 0; i < f.samples.size(); ++i) {
      const MetricsRegistry::Sample& s = f.samples[i];
      out += i == 0 ? "{\"labels\":{" : ",{\"labels\":{";
      for (std::size_t l = 0; l < s.labels.size(); ++l) {
        if (l != 0) out += ',';
        append_json_string(out, s.labels[l].first);
        out += ':';
        append_json_string(out, s.labels[l].second);
      }
      out += '}';
      switch (f.type) {
        case MetricType::kCounter:
          out += ",\"value\":" + std::to_string(s.counter);
          break;
        case MetricType::kGauge:
          out += ",\"value\":";
          append_json_number(out, s.gauge);
          break;
        case MetricType::kHistogram: {
          const LatencyHistogram& h = s.histogram;
          out += ",\"count\":" + std::to_string(h.count);
          const std::pair<const char*, double> stats[] = {
              {"mean_us", h.mean_micros()},
              {"p50_us", h.quantile_upper_micros(0.50)},
              {"p90_us", h.quantile_upper_micros(0.90)},
              {"p99_us", h.quantile_upper_micros(0.99)},
              {"max_us", h.max_micros}};
          for (const auto& [key, v] : stats) {
            out += ",\"";
            out += key;
            out += "\":";
            append_json_number(out, v);
          }
          break;
        }
      }
      out += '}';
    }
    out += "]}";
  }
  out += "}\n";
  return out;
}

std::string render_text(const MetricsRegistry& registry,
                        std::string_view title) {
  std::string out = "=== ";
  out += title;
  out += " ===\n";
  util::Table t({"metric", "value", "mean us", "p50 us", "p90 us", "p99 us",
                 "max us"});
  for (const MetricsRegistry::Family& f : registry.families()) {
    for (const MetricsRegistry::Sample& s : f.samples) {
      if (is_zero(f.type, s)) continue;
      t.row().cell(prom_series(f.name, s.labels));
      switch (f.type) {
        case MetricType::kCounter: t.cell(s.counter); break;
        case MetricType::kGauge: t.cell(shortest(s.gauge)); break;
        case MetricType::kHistogram: {
          const LatencyHistogram& h = s.histogram;
          t.cell(h.count)
              .cell(h.mean_micros(), 1)
              .cell(h.quantile_upper_micros(0.50), 0)
              .cell(h.quantile_upper_micros(0.90), 0)
              .cell(h.quantile_upper_micros(0.99), 0)
              .cell(h.max_micros, 1);
          break;
        }
      }
    }
  }
  // Counter and gauge rows leave the histogram columns empty; drop the
  // padding the table puts there.
  if (t.row_count() > 0) {
    for (const char c : t.render()) {
      if (c == '\n')
        while (!out.empty() && out.back() == ' ') out.pop_back();
      out += c;
    }
  }
  return out;
}

}  // namespace tgp::obs
