// MetricsSnapshot::record and the three registry walks over it, and the
// LatencyHistogram quantile edge cases the observability PR hardened.
#include "svc/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "obs/prom.hpp"
#include "svc/service.hpp"
#include "tools/serve_tool.hpp"

namespace tgp::svc {
namespace {

using obs::LatencyHistogram;

TEST(LatencyHistogram, BucketOfUpperRoundTrip) {
  // Every bucket's upper edge must map back into that bucket's range:
  // bucket_of(upper − ε) == b and bucket_of(upper) == b + 1 (half-open
  // [2^b, 2^(b+1)) ranges).
  for (int b = 0; b + 1 < LatencyHistogram::kBuckets; ++b) {
    const double upper = LatencyHistogram::bucket_upper(b);
    EXPECT_EQ(LatencyHistogram::bucket_of(upper * 0.999), b) << "b=" << b;
    EXPECT_EQ(LatencyHistogram::bucket_of(upper), b + 1) << "b=" << b;
  }
  // Below-range and degenerate values land in bucket 0.
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(0.5), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(-3.0), 0);
  // Beyond-range values clamp to the last bucket.
  EXPECT_EQ(LatencyHistogram::bucket_of(1e18),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, EmptyHistogramQuantilesAreZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile_upper_micros(0.5), 0);
  EXPECT_EQ(h.quantile_upper_micros(0.0), 0);
  EXPECT_EQ(h.quantile_upper_micros(1.0), 0);
  EXPECT_EQ(h.mean_micros(), 0);
}

TEST(LatencyHistogram, QuantileAtExactBucketBoundary) {
  // 100 samples: 7 in bucket 0, 93 in bucket 4.  q = 0.07 lands exactly
  // on the cumulative boundary; binary rounding of 0.07 * 100 must not
  // overshoot into the big bucket.
  LatencyHistogram h;
  for (int i = 0; i < 7; ++i) h.record(1.5);    // bucket 0 (≤ 2 µs)
  for (int i = 0; i < 93; ++i) h.record(20.0);  // bucket 4 (≤ 32 µs)
  EXPECT_EQ(h.quantile_upper_micros(0.07), LatencyHistogram::bucket_upper(0));
  EXPECT_EQ(h.quantile_upper_micros(0.0701),
            LatencyHistogram::bucket_upper(4));
  EXPECT_EQ(h.quantile_upper_micros(0.5), LatencyHistogram::bucket_upper(4));
}

TEST(LatencyHistogram, QuantileOneWithAllMassInBucketZero) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.record(0.5);
  EXPECT_EQ(h.quantile_upper_micros(1.0), LatencyHistogram::bucket_upper(0));
  EXPECT_EQ(h.quantile_upper_micros(0.5), LatencyHistogram::bucket_upper(0));
}

TEST(LatencyHistogram, QuantileClampsOutOfRangeQ) {
  LatencyHistogram h;
  h.record(1.0);    // bucket 0
  h.record(100.0);  // bucket 6
  // q ≤ 0 → first sample's bucket; q ≥ 1 → last sample's bucket.
  EXPECT_EQ(h.quantile_upper_micros(-0.5), LatencyHistogram::bucket_upper(0));
  EXPECT_EQ(h.quantile_upper_micros(0.0), LatencyHistogram::bucket_upper(0));
  EXPECT_EQ(h.quantile_upper_micros(1.0), LatencyHistogram::bucket_upper(6));
  EXPECT_EQ(h.quantile_upper_micros(7.0), LatencyHistogram::bucket_upper(6));
  EXPECT_EQ(h.quantile_upper_micros(std::numeric_limits<double>::quiet_NaN()),
            0);
}

TEST(LatencyHistogram, MergeAddsCountsAndKeepsMax) {
  LatencyHistogram a, b;
  a.record(1.0);
  b.record(50.0);
  b.record(3.0);
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.max_micros, 50.0);
  EXPECT_DOUBLE_EQ(a.total_micros, 54.0);
}

// ---- Snapshot rendering ----------------------------------------------------

MetricsSnapshot run_small_batch() {
  std::vector<JobSpec> specs = tools::generate_workload(40, 19, 0.4);
  ServiceConfig cfg;
  cfg.threads = 2;
  PartitionService service(cfg);
  service.run_batch(specs);
  return service.metrics();
}

obs::MetricsRegistry recorded(const MetricsSnapshot& m) {
  obs::MetricsRegistry r;
  m.record(r);
  return r;
}

TEST(MetricsRender, PrometheusExpositionIsWellFormed) {
  MetricsSnapshot m = run_small_batch();
  std::string s = obs::render_prometheus(recorded(m));

  // Core families present with headers.
  for (const char* family :
       {"tgp_jobs_submitted_total", "tgp_jobs_completed_total",
        "tgp_cache_hits_total", "tgp_job_latency_seconds",
        "tgp_queue_wait_seconds", "tgp_solver_oracle_calls_total"}) {
    EXPECT_NE(s.find(std::string("# TYPE ") + family), std::string::npos)
        << family;
  }
  EXPECT_NE(s.find("tgp_jobs_submitted_total 40\n"), std::string::npos);
  // Histograms close with +Inf and _count.
  EXPECT_NE(s.find("tgp_queue_wait_seconds_bucket{le=\"+Inf\"} 40\n"),
            std::string::npos);
  EXPECT_NE(s.find("tgp_queue_wait_seconds_count 40\n"), std::string::npos);
  // Every line is a comment or `name{labels} value` — no tabs, no blank
  // interior lines (exposition-format shape check).
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t end = s.find('\n', start);
    if (end == std::string::npos) end = s.size();
    std::string line = s.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      std::size_t sp = line.rfind(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      EXPECT_EQ(line.find('\t'), std::string::npos) << line;
    }
    start = end + 1;
  }
}

TEST(MetricsRender, PrometheusBucketsAreCumulative) {
  MetricsSnapshot m;
  m.queue_wait.record(1.0);
  m.queue_wait.record(100.0);
  std::string s = obs::render_prometheus(recorded(m));
  // Find the queue-wait bucket lines and check monotone non-decreasing
  // cumulative counts ending at count.
  std::uint64_t prev = 0;
  std::size_t pos = 0;
  bool saw_bucket = false;
  while ((pos = s.find("tgp_queue_wait_seconds_bucket{le=\"", pos)) !=
         std::string::npos) {
    std::size_t val_pos = s.find("} ", pos);
    ASSERT_NE(val_pos, std::string::npos);
    std::uint64_t v = std::stoull(s.substr(val_pos + 2));
    EXPECT_GE(v, prev);
    prev = v;
    saw_bucket = true;
    pos = val_pos;
  }
  EXPECT_TRUE(saw_bucket);
  EXPECT_EQ(prev, 2u);  // +Inf bucket equals total count
}

TEST(MetricsRender, JsonContainsCountersAndParsesShape) {
  MetricsSnapshot m = run_small_batch();
  std::string s = obs::render_json(recorded(m));
  // Shape checks: one object, key fields present, braces balance.
  EXPECT_EQ(s.front(), '{');
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{') ++depth;
    else if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(s.find("\"tgp_jobs_submitted_total\":{\"type\":\"counter\","
                   "\"help\":\"Jobs accepted by submit()\",\"samples\":"
                   "[{\"labels\":{},\"value\":40}]}"),
            std::string::npos);
  EXPECT_NE(s.find("\"tgp_solver_oracle_calls_total\""), std::string::npos);
  EXPECT_NE(s.find("\"tgp_queue_wait_seconds\":{\"type\":\"histogram\","
                   "\"help\":\"Submit-to-dequeue queue wait\",\"samples\":"
                   "[{\"labels\":{},\"count\":40,"),
            std::string::npos);
  EXPECT_NE(s.find("{\"labels\":{\"problem\":\"bottleneck\"}"),
            std::string::npos);
}

TEST(MetricsRender, FormatShowsCountersTableWhenPresent) {
  MetricsSnapshot m = run_small_batch();
  ASSERT_TRUE(m.counters_total().any());
  std::string s = obs::render_text(recorded(m), "service metrics");
  EXPECT_EQ(s.rfind("=== service metrics ===\n", 0), 0u);
  EXPECT_NE(s.find("tgp_solver_oracle_calls_total{problem="),
            std::string::npos);
}

TEST(MetricsRender, TextAndJsonShowTheSameHistogramStats) {
  obs::MetricsRegistry r;
  LatencyHistogram h;
  for (double us : {3.0, 5.0, 40.0, 900.5}) h.record(us);
  r.histogram("tgp_lat_seconds", "Latency", h, {{"problem", "procmin"}});
  r.counter("tgp_jobs_total", "Jobs", 4);
  r.counter("tgp_idle_total", "Never incremented", 0);
  r.gauge("tgp_ratio", "A fraction", 0.1);
  EXPECT_EQ(obs::render_text(r, "t"),
            "=== t ===\n"
            "metric                              value  mean us  p50 us  "
            "p90 us  p99 us  max us\n"
            "----------------------------------------------------------"
            "------------------------\n"
            "tgp_lat_seconds{problem=\"procmin\"}      4    237.1       8"
            "    1024    1024   900.5\n"
            "tgp_jobs_total                          4\n"
            "tgp_ratio                             0.1\n");
  EXPECT_EQ(obs::render_json(r),
            "{\"tgp_lat_seconds\":{\"type\":\"histogram\",\"help\":"
            "\"Latency\",\"samples\":[{\"labels\":{\"problem\":\"procmin\"},"
            "\"count\":4,\"mean_us\":237.125,\"p50_us\":8,\"p90_us\":1024,"
            "\"p99_us\":1024,\"max_us\":900.5}]},"
            "\"tgp_jobs_total\":{\"type\":\"counter\",\"help\":\"Jobs\","
            "\"samples\":[{\"labels\":{},\"value\":4}]},"
            "\"tgp_idle_total\":{\"type\":\"counter\",\"help\":"
            "\"Never incremented\",\"samples\":[{\"labels\":{},\"value\":0}]},"
            "\"tgp_ratio\":{\"type\":\"gauge\",\"help\":\"A fraction\","
            "\"samples\":[{\"labels\":{},\"value\":0.1}]}}\n");
}

// ---- Prometheus bytes, pinned against the text exporter it replaced ---------

/// Every field non-zero, so every family carries a distinctive value.
MetricsSnapshot full_snapshot() {
  MetricsSnapshot m;
  m.submitted = 101;
  m.completed = 97;
  m.failed = 9;
  for (int s = 0; s < kJobStatusCount; ++s)
    m.by_status[static_cast<std::size_t>(s)] = 10u + static_cast<unsigned>(s);
  m.cache.hits = 61;
  m.cache.misses = 36;
  m.cache.insertions = 35;
  m.cache.evictions = 4;
  m.cache.lookup_faults = 2;
  m.cache.store_faults = 3;
  m.cache.put_rejected = 5;
  m.cache.corrupt = 6;
  m.cache.recovered_entries = 7;
  m.cache.warm_hits = 8;
  m.cache.entries = 31;
  m.cache.bytes = 123456;
  m.cache.capacity_bytes = 67108864;
  m.cache.shards = 16;
  m.queue_high_watermark = 12;
  m.queue_capacity = 1024;
  m.threads = 4;
  m.watchdog_ticks = 250;
  m.deadline_cancels = 3;
  m.stuck_worker_peak = 2;
  m.stuck_workers_now = 1;
  MetricsSnapshot::ResilienceStats& r = m.resilience;
  r.max_inflight = 64;
  r.inflight_now = 5;
  r.inflight_peak = 40;
  r.rejected_inflight = 11;
  r.rejected_rate = 13;
  r.jobs_shed = 14;
  MetricsSnapshot::DurabilityStats& d = m.durability;
  d.enabled = true;
  d.clean_start = true;
  d.recovered_entries = 7;
  d.warm_hits = 8;
  d.dropped_crc = 21;
  d.dropped_truncated = 22;
  d.dropped_stale_epoch = 23;
  d.dropped_malformed = 24;
  d.duplicates = 25;
  d.journal_appends = 26;
  d.journal_bytes = 4096;
  d.append_failures = 27;
  d.compactions = 28;
  d.quarantined = 29;
  d.verified_ok = 30;
  d.verify_failed = 31;
  for (int p = 0; p < kProblemCount; ++p) {
    LatencyHistogram& h = m.latency_by_problem[static_cast<std::size_t>(p)];
    h.record(0.5 + p);
    h.record(3.25 * (p + 1));
    h.record(1000.75 + 100 * p);
    obs::SolveCounters& c = m.counters_by_problem[static_cast<std::size_t>(p)];
    const auto k = static_cast<unsigned>(p);
    c.oracle_calls = 100u + k;
    c.bsearch_probes = 200u + k;
    c.gallop_probes = 300u + k;
    c.prime_subpaths = 400u + k;
    c.nonredundant_edges = 500u + k;
    c.temps_peak_rows = 600u + k;
    c.arena_bytes_peak = 700u + k;
  }
  m.queue_wait.record(2.5);
  m.queue_wait.record(70.125);
  return m;
}

// full_snapshot() as the hand-written text exporter rendered it,
// regrouped family by family by the text re-parser the registry replaced
// (the exporter split each tgp_solver_* family into four blocks).
constexpr const char* kSnapshotGolden = R"golden(# HELP tgp_jobs_submitted_total Jobs accepted by submit()
# TYPE tgp_jobs_submitted_total counter
tgp_jobs_submitted_total 101
# HELP tgp_jobs_completed_total Jobs finished (any status)
# TYPE tgp_jobs_completed_total counter
tgp_jobs_completed_total 97
# HELP tgp_jobs_failed_total Completed jobs with ok == false
# TYPE tgp_jobs_failed_total counter
tgp_jobs_failed_total 9
# HELP tgp_jobs_by_status_total Completed jobs by final status
# TYPE tgp_jobs_by_status_total counter
tgp_jobs_by_status_total{status="ok"} 10
tgp_jobs_by_status_total{status="invalid_spec"} 11
tgp_jobs_by_status_total{status="timeout"} 12
tgp_jobs_by_status_total{status="cancelled"} 13
tgp_jobs_by_status_total{status="internal_error"} 14
tgp_jobs_by_status_total{status="overloaded"} 15
# HELP tgp_cache_hits_total Memo cache hits
# TYPE tgp_cache_hits_total counter
tgp_cache_hits_total 61
# HELP tgp_cache_misses_total Memo cache misses
# TYPE tgp_cache_misses_total counter
tgp_cache_misses_total 36
# HELP tgp_cache_insertions_total Memo cache insertions
# TYPE tgp_cache_insertions_total counter
tgp_cache_insertions_total 35
# HELP tgp_cache_evictions_total Memo cache evictions
# TYPE tgp_cache_evictions_total counter
tgp_cache_evictions_total 4
# HELP tgp_cache_lookup_faults_total Cache lookups that faulted (also counted as misses)
# TYPE tgp_cache_lookup_faults_total counter
tgp_cache_lookup_faults_total 2
# HELP tgp_cache_store_faults_total Cache stores that faulted
# TYPE tgp_cache_store_faults_total counter
tgp_cache_store_faults_total 3
# HELP tgp_cache_put_rejected_total Puts rejected by the per-entry byte cap
# TYPE tgp_cache_put_rejected_total counter
tgp_cache_put_rejected_total 5
# HELP tgp_cache_corrupt_total Entries that failed their checksum at lookup (served as misses, quarantined)
# TYPE tgp_cache_corrupt_total counter
tgp_cache_corrupt_total 6
# HELP tgp_cache_warm_hits_total Hits served by recovery-loaded entries
# TYPE tgp_cache_warm_hits_total counter
tgp_cache_warm_hits_total 8
# HELP tgp_cache_entries Live memo cache entries
# TYPE tgp_cache_entries gauge
tgp_cache_entries 31
# HELP tgp_cache_bytes Memo cache bytes in use
# TYPE tgp_cache_bytes gauge
tgp_cache_bytes 123456
# HELP tgp_cache_capacity_bytes Memo cache byte budget
# TYPE tgp_cache_capacity_bytes gauge
tgp_cache_capacity_bytes 67108864
# HELP tgp_threads Worker thread count
# TYPE tgp_threads gauge
tgp_threads 4
# HELP tgp_queue_capacity Job queue capacity
# TYPE tgp_queue_capacity gauge
tgp_queue_capacity 1024
# HELP tgp_queue_high_watermark Deepest queue occupancy seen
# TYPE tgp_queue_high_watermark gauge
tgp_queue_high_watermark 12
# HELP tgp_watchdog_ticks_total Watchdog scan passes
# TYPE tgp_watchdog_ticks_total counter
tgp_watchdog_ticks_total 250
# HELP tgp_watchdog_deadline_cancels_total Deadlines fired by the watchdog
# TYPE tgp_watchdog_deadline_cancels_total counter
tgp_watchdog_deadline_cancels_total 3
# HELP tgp_stuck_workers Workers currently over the stuck threshold
# TYPE tgp_stuck_workers gauge
tgp_stuck_workers 1
# HELP tgp_stuck_worker_peak Peak simultaneous stuck workers
# TYPE tgp_stuck_worker_peak gauge
tgp_stuck_worker_peak 2
# HELP tgp_jobs_rejected_total Submits rejected kOverloaded by admission control
# TYPE tgp_jobs_rejected_total counter
tgp_jobs_rejected_total{reason="inflight"} 11
tgp_jobs_rejected_total{reason="rate"} 13
# HELP tgp_jobs_shed_total Jobs dropped at dequeue (deadline expired or cancelled while queued)
# TYPE tgp_jobs_shed_total counter
tgp_jobs_shed_total 14
# HELP tgp_inflight_jobs Jobs admitted but not yet settled
# TYPE tgp_inflight_jobs gauge
tgp_inflight_jobs 5
# HELP tgp_inflight_jobs_peak High-water of admitted unfinished jobs
# TYPE tgp_inflight_jobs_peak gauge
tgp_inflight_jobs_peak 40
# HELP tgp_durability_enabled Whether a crash-safe cache store is configured
# TYPE tgp_durability_enabled gauge
tgp_durability_enabled 1
# HELP tgp_durability_clean_start Whether the last boot found a valid clean-shutdown marker
# TYPE tgp_durability_clean_start gauge
tgp_durability_clean_start 1
# HELP tgp_recovered_entries_total Cache entries loaded from the snapshot+journal at boot
# TYPE tgp_recovered_entries_total counter
tgp_recovered_entries_total 7
# HELP tgp_recovery_dropped_total Records dropped during recovery
# TYPE tgp_recovery_dropped_total counter
tgp_recovery_dropped_total{reason="crc"} 21
tgp_recovery_dropped_total{reason="truncated"} 22
tgp_recovery_dropped_total{reason="stale_epoch"} 23
tgp_recovery_dropped_total{reason="malformed"} 24
# HELP tgp_recovery_duplicates_total Recovered records superseded by a later write
# TYPE tgp_recovery_duplicates_total counter
tgp_recovery_duplicates_total 25
# HELP tgp_journal_appends_total Records appended to the journal
# TYPE tgp_journal_appends_total counter
tgp_journal_appends_total 26
# HELP tgp_journal_append_failures_total Journal appends that failed
# TYPE tgp_journal_append_failures_total counter
tgp_journal_append_failures_total 27
# HELP tgp_journal_bytes Current journal size
# TYPE tgp_journal_bytes gauge
tgp_journal_bytes 4096
# HELP tgp_compactions_total Snapshot compactions performed
# TYPE tgp_compactions_total counter
tgp_compactions_total 28
# HELP tgp_quarantined_total Corrupt records preserved in the quarantine sidecar
# TYPE tgp_quarantined_total counter
tgp_quarantined_total 29
# HELP tgp_verify_ok_total Results that passed the independent verifier
# TYPE tgp_verify_ok_total counter
tgp_verify_ok_total 30
# HELP tgp_verify_failures_total Results that failed the independent verifier
# TYPE tgp_verify_failures_total counter
tgp_verify_failures_total 31
# HELP tgp_solver_oracle_calls_total Feasibility probes / DP edge steps
# TYPE tgp_solver_oracle_calls_total counter
tgp_solver_oracle_calls_total{problem="bottleneck"} 100
tgp_solver_oracle_calls_total{problem="procmin"} 101
tgp_solver_oracle_calls_total{problem="bandwidth"} 102
tgp_solver_oracle_calls_total{problem="pipeline"} 103
# HELP tgp_solver_bsearch_probes_total Binary-search iterations
# TYPE tgp_solver_bsearch_probes_total counter
tgp_solver_bsearch_probes_total{problem="bottleneck"} 200
tgp_solver_bsearch_probes_total{problem="procmin"} 201
tgp_solver_bsearch_probes_total{problem="bandwidth"} 202
tgp_solver_bsearch_probes_total{problem="pipeline"} 203
# HELP tgp_solver_gallop_probes_total Gallop-policy search probes
# TYPE tgp_solver_gallop_probes_total counter
tgp_solver_gallop_probes_total{problem="bottleneck"} 300
tgp_solver_gallop_probes_total{problem="procmin"} 301
tgp_solver_gallop_probes_total{problem="bandwidth"} 302
tgp_solver_gallop_probes_total{problem="pipeline"} 303
# HELP tgp_solver_prime_subpaths_total Prime critical subpaths (paper's p)
# TYPE tgp_solver_prime_subpaths_total counter
tgp_solver_prime_subpaths_total{problem="bottleneck"} 400
tgp_solver_prime_subpaths_total{problem="procmin"} 401
tgp_solver_prime_subpaths_total{problem="bandwidth"} 402
tgp_solver_prime_subpaths_total{problem="pipeline"} 403
# HELP tgp_solver_nonredundant_edges_total Non-redundant edges after reduction
# TYPE tgp_solver_nonredundant_edges_total counter
tgp_solver_nonredundant_edges_total{problem="bottleneck"} 500
tgp_solver_nonredundant_edges_total{problem="procmin"} 501
tgp_solver_nonredundant_edges_total{problem="bandwidth"} 502
tgp_solver_nonredundant_edges_total{problem="pipeline"} 503
# HELP tgp_solver_temps_peak_rows TEMP_S occupancy high-water
# TYPE tgp_solver_temps_peak_rows gauge
tgp_solver_temps_peak_rows{problem="bottleneck"} 600
tgp_solver_temps_peak_rows{problem="procmin"} 601
tgp_solver_temps_peak_rows{problem="bandwidth"} 602
tgp_solver_temps_peak_rows{problem="pipeline"} 603
# HELP tgp_solver_arena_bytes_peak Scratch arena high-water
# TYPE tgp_solver_arena_bytes_peak gauge
tgp_solver_arena_bytes_peak{problem="bottleneck"} 700
tgp_solver_arena_bytes_peak{problem="procmin"} 701
tgp_solver_arena_bytes_peak{problem="bandwidth"} 702
tgp_solver_arena_bytes_peak{problem="pipeline"} 703
# HELP tgp_job_latency_seconds Submit-to-complete job latency
# TYPE tgp_job_latency_seconds histogram
tgp_job_latency_seconds_bucket{problem="bottleneck",le="2e-06"} 1
tgp_job_latency_seconds_bucket{problem="bottleneck",le="4e-06"} 2
tgp_job_latency_seconds_bucket{problem="bottleneck",le="8e-06"} 2
tgp_job_latency_seconds_bucket{problem="bottleneck",le="1.6e-05"} 2
tgp_job_latency_seconds_bucket{problem="bottleneck",le="3.2e-05"} 2
tgp_job_latency_seconds_bucket{problem="bottleneck",le="6.4e-05"} 2
tgp_job_latency_seconds_bucket{problem="bottleneck",le="0.000128"} 2
tgp_job_latency_seconds_bucket{problem="bottleneck",le="0.000256"} 2
tgp_job_latency_seconds_bucket{problem="bottleneck",le="0.000512"} 2
tgp_job_latency_seconds_bucket{problem="bottleneck",le="0.001024"} 3
tgp_job_latency_seconds_bucket{problem="bottleneck",le="+Inf"} 3
tgp_job_latency_seconds_sum{problem="bottleneck"} 0.001004
tgp_job_latency_seconds_count{problem="bottleneck"} 3
tgp_job_latency_seconds_bucket{problem="procmin",le="2e-06"} 1
tgp_job_latency_seconds_bucket{problem="procmin",le="4e-06"} 1
tgp_job_latency_seconds_bucket{problem="procmin",le="8e-06"} 2
tgp_job_latency_seconds_bucket{problem="procmin",le="1.6e-05"} 2
tgp_job_latency_seconds_bucket{problem="procmin",le="3.2e-05"} 2
tgp_job_latency_seconds_bucket{problem="procmin",le="6.4e-05"} 2
tgp_job_latency_seconds_bucket{problem="procmin",le="0.000128"} 2
tgp_job_latency_seconds_bucket{problem="procmin",le="0.000256"} 2
tgp_job_latency_seconds_bucket{problem="procmin",le="0.000512"} 2
tgp_job_latency_seconds_bucket{problem="procmin",le="0.001024"} 2
tgp_job_latency_seconds_bucket{problem="procmin",le="0.002048"} 3
tgp_job_latency_seconds_bucket{problem="procmin",le="+Inf"} 3
tgp_job_latency_seconds_sum{problem="procmin"} 0.001108
tgp_job_latency_seconds_count{problem="procmin"} 3
tgp_job_latency_seconds_bucket{problem="bandwidth",le="2e-06"} 0
tgp_job_latency_seconds_bucket{problem="bandwidth",le="4e-06"} 1
tgp_job_latency_seconds_bucket{problem="bandwidth",le="8e-06"} 1
tgp_job_latency_seconds_bucket{problem="bandwidth",le="1.6e-05"} 2
tgp_job_latency_seconds_bucket{problem="bandwidth",le="3.2e-05"} 2
tgp_job_latency_seconds_bucket{problem="bandwidth",le="6.4e-05"} 2
tgp_job_latency_seconds_bucket{problem="bandwidth",le="0.000128"} 2
tgp_job_latency_seconds_bucket{problem="bandwidth",le="0.000256"} 2
tgp_job_latency_seconds_bucket{problem="bandwidth",le="0.000512"} 2
tgp_job_latency_seconds_bucket{problem="bandwidth",le="0.001024"} 2
tgp_job_latency_seconds_bucket{problem="bandwidth",le="0.002048"} 3
tgp_job_latency_seconds_bucket{problem="bandwidth",le="+Inf"} 3
tgp_job_latency_seconds_sum{problem="bandwidth"} 0.001213
tgp_job_latency_seconds_count{problem="bandwidth"} 3
tgp_job_latency_seconds_bucket{problem="pipeline",le="2e-06"} 0
tgp_job_latency_seconds_bucket{problem="pipeline",le="4e-06"} 1
tgp_job_latency_seconds_bucket{problem="pipeline",le="8e-06"} 1
tgp_job_latency_seconds_bucket{problem="pipeline",le="1.6e-05"} 2
tgp_job_latency_seconds_bucket{problem="pipeline",le="3.2e-05"} 2
tgp_job_latency_seconds_bucket{problem="pipeline",le="6.4e-05"} 2
tgp_job_latency_seconds_bucket{problem="pipeline",le="0.000128"} 2
tgp_job_latency_seconds_bucket{problem="pipeline",le="0.000256"} 2
tgp_job_latency_seconds_bucket{problem="pipeline",le="0.000512"} 2
tgp_job_latency_seconds_bucket{problem="pipeline",le="0.001024"} 2
tgp_job_latency_seconds_bucket{problem="pipeline",le="0.002048"} 3
tgp_job_latency_seconds_bucket{problem="pipeline",le="+Inf"} 3
tgp_job_latency_seconds_sum{problem="pipeline"} 0.001317
tgp_job_latency_seconds_count{problem="pipeline"} 3
# HELP tgp_queue_wait_seconds Submit-to-dequeue queue wait
# TYPE tgp_queue_wait_seconds histogram
tgp_queue_wait_seconds_bucket{le="2e-06"} 0
tgp_queue_wait_seconds_bucket{le="4e-06"} 1
tgp_queue_wait_seconds_bucket{le="8e-06"} 1
tgp_queue_wait_seconds_bucket{le="1.6e-05"} 1
tgp_queue_wait_seconds_bucket{le="3.2e-05"} 1
tgp_queue_wait_seconds_bucket{le="6.4e-05"} 1
tgp_queue_wait_seconds_bucket{le="0.000128"} 2
tgp_queue_wait_seconds_bucket{le="+Inf"} 2
tgp_queue_wait_seconds_sum 7.2e-05
tgp_queue_wait_seconds_count 2
)golden";

// The only family the registry adds: a value that used to appear in the
// text or JSON report only.  (The test's name counts the three breaker
// families that were added beside it until the cache breaker was deleted.)
constexpr const char* kAddedFamilies[] = {
    "# HELP tgp_inflight_jobs_cap Admission cap on jobs in flight "
    "(0 = uncapped)\n# TYPE tgp_inflight_jobs_cap gauge\n"
    "tgp_inflight_jobs_cap 64\n",
};

TEST(MetricsRender, PrometheusIsTheRegroupedTextPlusFourFamilies) {
  std::string text = obs::render_prometheus(recorded(full_snapshot()));
  for (const char* block : kAddedFamilies) {
    const std::size_t at = text.find(block);
    ASSERT_NE(at, std::string::npos) << block;
    text.erase(at, std::strlen(block));
  }
  EXPECT_EQ(text, kSnapshotGolden);
}

}  // namespace
}  // namespace tgp::svc
