#include "svc/metrics.hpp"

namespace tgp::svc {

obs::LatencyHistogram MetricsSnapshot::overall_latency() const {
  obs::LatencyHistogram all;
  for (const obs::LatencyHistogram& h : latency_by_problem) all.merge(h);
  return all;
}

obs::SolveCounters MetricsSnapshot::counters_total() const {
  obs::SolveCounters all;
  for (const obs::SolveCounters& c : counters_by_problem) all.merge(c);
  return all;
}

void MetricsSnapshot::record(obs::MetricsRegistry& r) const {
  // Not recorded: durability.warm_hits and cache.recovered_entries mirror
  // cache.warm_hits and durability.recovered_entries, and cache.shards is
  // configuration rather than a measurement.
  r.counter("tgp_jobs_submitted_total", "Jobs accepted by submit()",
            submitted);
  r.counter("tgp_jobs_completed_total", "Jobs finished (any status)",
            completed);
  r.counter("tgp_jobs_failed_total", "Completed jobs with ok == false",
            failed);
  for (int s = 0; s < kJobStatusCount; ++s) {
    r.counter("tgp_jobs_by_status_total", "Completed jobs by final status",
              by_status[static_cast<std::size_t>(s)],
              {{"status", job_status_name(static_cast<JobStatus>(s))}});
  }

  r.counter("tgp_cache_hits_total", "Memo cache hits", cache.hits);
  r.counter("tgp_cache_misses_total", "Memo cache misses", cache.misses);
  r.counter("tgp_cache_insertions_total", "Memo cache insertions",
            cache.insertions);
  r.counter("tgp_cache_evictions_total", "Memo cache evictions",
            cache.evictions);
  r.counter("tgp_cache_lookup_faults_total",
            "Cache lookups that faulted (also counted as misses)",
            cache.lookup_faults);
  r.counter("tgp_cache_store_faults_total", "Cache stores that faulted",
            cache.store_faults);
  r.counter("tgp_cache_put_rejected_total",
            "Puts rejected by the per-entry byte cap", cache.put_rejected);
  r.counter("tgp_cache_corrupt_total",
            "Entries that failed their checksum at lookup (served as "
            "misses, quarantined)",
            cache.corrupt);
  r.counter("tgp_cache_warm_hits_total",
            "Hits served by recovery-loaded entries", cache.warm_hits);
  r.gauge("tgp_cache_entries", "Live memo cache entries",
          static_cast<double>(cache.entries));
  r.gauge("tgp_cache_bytes", "Memo cache bytes in use",
          static_cast<double>(cache.bytes));
  r.gauge("tgp_cache_capacity_bytes", "Memo cache byte budget",
          static_cast<double>(cache.capacity_bytes));

  r.gauge("tgp_threads", "Worker thread count",
          static_cast<double>(threads));
  r.gauge("tgp_queue_capacity", "Job queue capacity",
          static_cast<double>(queue_capacity));
  r.gauge("tgp_queue_high_watermark", "Deepest queue occupancy seen",
          static_cast<double>(queue_high_watermark));

  r.counter("tgp_watchdog_ticks_total", "Watchdog scan passes",
            watchdog_ticks);
  r.counter("tgp_watchdog_deadline_cancels_total",
            "Deadlines fired by the watchdog", deadline_cancels);
  r.gauge("tgp_stuck_workers", "Workers currently over the stuck threshold",
          static_cast<double>(stuck_workers_now));
  r.gauge("tgp_stuck_worker_peak", "Peak simultaneous stuck workers",
          static_cast<double>(stuck_worker_peak));

  r.counter("tgp_jobs_rejected_total",
            "Submits rejected kOverloaded by admission control",
            resilience.rejected_inflight, {{"reason", "inflight"}});
  r.counter("tgp_jobs_rejected_total",
            "Submits rejected kOverloaded by admission control",
            resilience.rejected_rate, {{"reason", "rate"}});
  r.counter("tgp_jobs_shed_total",
            "Jobs dropped at dequeue (deadline expired or cancelled while "
            "queued)",
            resilience.jobs_shed);
  r.gauge("tgp_inflight_jobs", "Jobs admitted but not yet settled",
          static_cast<double>(resilience.inflight_now));
  r.gauge("tgp_inflight_jobs_peak", "High-water of admitted unfinished jobs",
          static_cast<double>(resilience.inflight_peak));
  r.gauge("tgp_inflight_jobs_cap",
          "Admission cap on jobs in flight (0 = uncapped)",
          static_cast<double>(resilience.max_inflight));

  r.gauge("tgp_durability_enabled",
          "Whether a crash-safe cache store is configured",
          durability.enabled ? 1.0 : 0.0);
  r.gauge("tgp_durability_clean_start",
          "Whether the last boot found a valid clean-shutdown marker",
          durability.clean_start ? 1.0 : 0.0);
  r.counter("tgp_recovered_entries_total",
            "Cache entries loaded from the snapshot+journal at boot",
            durability.recovered_entries);
  r.counter("tgp_recovery_dropped_total",
            "Records dropped during recovery", durability.dropped_crc,
            {{"reason", "crc"}});
  r.counter("tgp_recovery_dropped_total", "", durability.dropped_truncated,
            {{"reason", "truncated"}});
  r.counter("tgp_recovery_dropped_total", "", durability.dropped_stale_epoch,
            {{"reason", "stale_epoch"}});
  r.counter("tgp_recovery_dropped_total", "", durability.dropped_malformed,
            {{"reason", "malformed"}});
  r.counter("tgp_recovery_duplicates_total",
            "Recovered records superseded by a later write",
            durability.duplicates);
  r.counter("tgp_journal_appends_total", "Records appended to the journal",
            durability.journal_appends);
  r.counter("tgp_journal_append_failures_total",
            "Journal appends that failed", durability.append_failures);
  r.gauge("tgp_journal_bytes", "Current journal size",
          static_cast<double>(durability.journal_bytes));
  r.counter("tgp_compactions_total", "Snapshot compactions performed",
            durability.compactions);
  r.counter("tgp_quarantined_total",
            "Corrupt records preserved in the quarantine sidecar",
            durability.quarantined);
  r.counter("tgp_verify_ok_total", "Results that passed the independent "
            "verifier", durability.verified_ok);
  r.counter("tgp_verify_failures_total",
            "Results that failed the independent verifier",
            durability.verify_failed);

  for (int p = 0; p < kProblemCount; ++p) {
    const obs::SolveCounters& c =
        counters_by_problem[static_cast<std::size_t>(p)];
    const obs::Labels ls{{"problem", problem_name(static_cast<Problem>(p))}};
    r.counter("tgp_solver_oracle_calls_total",
              "Feasibility probes / DP edge steps", c.oracle_calls, ls);
    r.counter("tgp_solver_bsearch_probes_total",
              "Binary-search iterations", c.bsearch_probes, ls);
    r.counter("tgp_solver_gallop_probes_total",
              "Gallop-policy search probes", c.gallop_probes, ls);
    r.counter("tgp_solver_prime_subpaths_total",
              "Prime critical subpaths (paper's p)", c.prime_subpaths, ls);
    r.counter("tgp_solver_nonredundant_edges_total",
              "Non-redundant edges after reduction", c.nonredundant_edges,
              ls);
    r.gauge("tgp_solver_temps_peak_rows", "TEMP_S occupancy high-water",
            static_cast<double>(c.temps_peak_rows), ls);
    r.gauge("tgp_solver_arena_bytes_peak", "Scratch arena high-water",
            static_cast<double>(c.arena_bytes_peak), ls);
  }

  for (int p = 0; p < kProblemCount; ++p) {
    r.histogram("tgp_job_latency_seconds", "Submit-to-complete job latency",
                latency_by_problem[static_cast<std::size_t>(p)],
                {{"problem", problem_name(static_cast<Problem>(p))}});
  }
  r.histogram("tgp_queue_wait_seconds", "Submit-to-dequeue queue wait",
              queue_wait);
}

}  // namespace tgp::svc
