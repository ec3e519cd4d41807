// One typed metrics registry: the data model every exporter records into.
//
// A registry holds metric families (name, help, type) in first-record
// order; each family holds its samples in record order, one per label
// set, valued as a counter (u64), a gauge (double) or a log₂ latency
// histogram.  Because samples group under their family as they are
// recorded, every walk emits a family as one block however the callers
// interleave their records.
//
// Three generic walks turn a registry into output: Prometheus text
// (obs/prom.hpp), a JSON object and a human-readable table (below).
// merge() folds another registry in under extra labels — the router's
// fleet view stamps shard="N" this way — and net/wire carries a registry
// as typed samples, so nothing downstream parses exposition text.
//
// Registries are built when a snapshot is rendered or a scrape arrives,
// never on a job path.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tgp::obs {

/// Log₂-bucketed latency histogram.  Bucket b counts latencies in
/// [2^b, 2^(b+1)) microseconds (bucket 0 also takes < 1 µs).
/// Quantiles are estimates with ≤ 2× resolution, which is plenty for a
/// throughput dashboard and costs one bit-scan per record.
struct LatencyHistogram {
  static constexpr int kBuckets = 28;  // up to ~2^28 µs ≈ 4.5 minutes

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t count = 0;
  double total_micros = 0;
  double max_micros = 0;

  static int bucket_of(double micros);
  /// Upper edge of bucket b in microseconds.
  static double bucket_upper(int b);

  void record(double micros);
  void merge(const LatencyHistogram& other);

  double mean_micros() const {
    return count == 0 ? 0.0 : total_micros / static_cast<double>(count);
  }
  /// Upper edge of the bucket holding the q-quantile.  q is clamped into
  /// (0, 1]: q ≤ 0 asks for the first recorded sample, q ≥ 1 for the
  /// last; an empty histogram (or NaN q) returns 0.  The target rank is
  /// computed with a scale-relative tolerance so a q that lands exactly
  /// on a cumulative-count boundary (e.g. q=0.07 over 100 samples, where
  /// 0.07*100 rounds to just above 7 in binary) selects that boundary's
  /// bucket instead of overshooting into the next one.
  double quantile_upper_micros(double q) const;

  bool operator==(const LatencyHistogram&) const = default;
};

using Labels = std::vector<std::pair<std::string, std::string>>;

/// Values are the wire encoding (net/wire kMetricsReply).
enum class MetricType : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

/// "counter" | "gauge" | "histogram" (the Prometheus TYPE words).
const char* metric_type_name(MetricType t);

class MetricsRegistry {
 public:
  /// One series.  Only the field matching the family's type is used.
  struct Sample {
    Labels labels;
    std::uint64_t counter = 0;
    double gauge = 0;
    LatencyHistogram histogram;

    bool operator==(const Sample&) const = default;
  };

  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<Sample> samples;

    bool operator==(const Family&) const = default;
  };

  /// Append a sample to family `name`, creating the family (with `help`
  /// and `type`) on its first record, and return it for the caller to
  /// set its value (the reference lasts until the next record).  A later
  /// record may leave help empty; recording an existing name under
  /// another type is a caller bug and throws.  Label sets are not
  /// deduplicated: record each once.
  Sample& record(std::string_view name, std::string_view help,
                 MetricType type, Labels labels = {});

  void counter(std::string_view name, std::string_view help,
               std::uint64_t value, Labels labels = {});
  void gauge(std::string_view name, std::string_view help, double value,
             Labels labels = {});
  void histogram(std::string_view name, std::string_view help,
                 const LatencyHistogram& value, Labels labels = {});

  /// Fold another registry in: its families join ours by name (new ones
  /// append in its order) and each of its samples gets `extra` in front
  /// of its own labels, except for keys the sample already carries.  A
  /// family whose name is ours under another type is skipped.
  void merge(const MetricsRegistry& other, const Labels& extra = {});

  const std::vector<Family>& families() const { return families_; }
  const Family* family(std::string_view name) const;

  /// Value of the counter or gauge sample of `name` with exactly
  /// `labels` (same keys, same order); nullopt when there is none.
  std::optional<double> value(std::string_view name,
                              const Labels& labels = {}) const;

  bool operator==(const MetricsRegistry&) const = default;

 private:
  std::vector<Family> families_;
};

/// The registry as one JSON object keyed by family name:
///   {"name":{"type":"counter","help":"...","samples":[
///     {"labels":{"k":"v"},"value":1}, ...]}, ...}
/// Histogram samples carry count, mean_us, p50_us, p90_us, p99_us and
/// max_us instead of value.
std::string render_json(const MetricsRegistry& registry);

/// `=== title ===` and one table of the non-zero samples: counters and
/// gauges show their value; histograms their count (in the value column),
/// mean, p50, p90, p99 and max in µs.
std::string render_text(const MetricsRegistry& registry,
                        std::string_view title);

}  // namespace tgp::obs
