// Service runtime observability: counters + per-problem latency histograms.
//
// Workers record into their own histogram slabs (no shared cache line on
// the hot path); metrics() merges the slabs plus the queue and cache
// gauges into one MetricsSnapshot — a plain value, safe to hold after the
// service is gone.  MetricsSnapshot::record() is the one place its fields
// become metrics: every exporter (text report, Prometheus, JSON, the
// backend's /metrics) walks the obs::MetricsRegistry it fills.
#pragma once

#include <array>
#include <cstdint>

#include "obs/registry.hpp"
#include "svc/cache.hpp"
#include "svc/job.hpp"

namespace tgp::svc {

/// Point-in-time view of the runtime.  Everything here is cumulative
/// since service construction.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  ///< subset of completed with ok == false
  /// Completed jobs by JobStatus (indexed by static_cast<int>(status)).
  std::array<std::uint64_t, kJobStatusCount> by_status{};
  CacheStats cache;
  std::size_t queue_high_watermark = 0;
  std::size_t queue_capacity = 0;
  int threads = 0;

  // Watchdog health gauges (all zero when the watchdog is disabled).
  std::uint64_t watchdog_ticks = 0;     ///< scans performed so far
  std::uint64_t deadline_cancels = 0;   ///< deadlines the watchdog fired
  std::uint64_t stuck_worker_peak = 0;  ///< max workers simultaneously over
                                        ///< the stuck threshold
  int stuck_workers_now = 0;            ///< currently over the threshold

  /// Admission-control and shedding accounting (svc/resilience.hpp).
  /// All zero while neither cap is set and no job is shed.
  struct ResilienceStats {
    std::size_t max_inflight = 0;   ///< configured cap (0 = uncapped)
    std::size_t inflight_now = 0;   ///< jobs admitted but not yet settled
    std::size_t inflight_peak = 0;  ///< high-water of the above
    std::uint64_t rejected_inflight = 0;  ///< kOverloaded: cap reached
    std::uint64_t rejected_rate = 0;      ///< kOverloaded: bucket empty
    std::uint64_t jobs_shed = 0;       ///< dropped at dequeue (expired)

    bool any() const {
      return max_inflight != 0 || inflight_now != 0 || inflight_peak != 0 ||
             rejected_inflight != 0 || rejected_rate != 0 || jobs_shed != 0;
    }
  };
  ResilienceStats resilience;

  /// Durable warm-start + integrity accounting (src/dur, core/verify).
  /// All zero with persistence and verification off.
  struct DurabilityStats {
    bool enabled = false;      ///< a cache_dir is configured
    bool clean_start = false;  ///< last boot found a valid clean marker
    std::uint64_t recovered_entries = 0;  ///< loaded from snapshot+journal
    std::uint64_t warm_hits = 0;          ///< hits served by those entries
    // Recovery-time drop accounting (why records did not load).
    std::uint64_t dropped_crc = 0;
    std::uint64_t dropped_truncated = 0;
    std::uint64_t dropped_stale_epoch = 0;
    std::uint64_t dropped_malformed = 0;  ///< framed ok, undecodable payload
    std::uint64_t duplicates = 0;         ///< superseded by a later record
    // Steady-state store accounting.
    std::uint64_t journal_appends = 0;
    std::uint64_t journal_bytes = 0;
    std::uint64_t append_failures = 0;
    std::uint64_t compactions = 0;
    std::uint64_t quarantined = 0;
    // Independent-verifier outcomes (recovered hits + --verify solves).
    std::uint64_t verified_ok = 0;
    std::uint64_t verify_failed = 0;
  };
  DurabilityStats durability;

  std::array<obs::LatencyHistogram, kProblemCount> latency_by_problem{};

  /// Time from submit to a worker dequeuing, all problems merged.
  obs::LatencyHistogram queue_wait;

  /// Solver work counters accumulated per problem kind (sums over
  /// completed-ok jobs; peaks are maxima).  Cache hits re-contribute the
  /// original solve's counters, so these track *logical* work served.
  std::array<obs::SolveCounters, kProblemCount> counters_by_problem{};

  std::uint64_t status_count(JobStatus s) const {
    return by_status[static_cast<std::size_t>(s)];
  }

  obs::LatencyHistogram overall_latency() const;
  obs::SolveCounters counters_total() const;

  /// Record every field into `registry` as tgp_* families (counters,
  /// gauges and the log₂ latency histograms).
  void record(obs::MetricsRegistry& registry) const;
};

}  // namespace tgp::svc
