// The partition service runtime: a fixed worker pool over a bounded MPMC
// queue, with a canonical-graph memo cache in front of the solvers.
//
// Job lifecycle:
//
//   submit(spec) ──► validate ── bad ──► slot settles kInvalidSpec
//        │              │ ok
//        │     ordered result slot + cancel token ──► bounded queue
//        │                                                  │
//        │ (blocks while the queue is full — backpressure)  ▼
//        │                                          worker pops job
//        │                     expired deadline / pending cancel? ──► fail slot
//        │                                                  │
//        │        canonicalize: one hashing pass → key + maps back
//        │                                                  │
//        │                        memo cache probe ── hit ──┐
//        │                              │ miss              │
//        │            build canonical tree (trees only)     │
//        │                        solve canonical  ◄─ polls the job's
//        │                        store in cache      cancel token
//        │                              └───────┬───────────┘
//        │                            map cut back to submitted
//        │                            labeling, write result slot
//        ▼                                                  │
//   wait_idle() ◄── completed count reaches submitted ◄─────┘
//
// Fault tolerance: every solve runs inside a catch-all boundary, so a
// throwing solver (or an injected fault — util/fault.hpp) settles its own
// slot with a JobStatus instead of taking the process down.  Deadlines
// and cancellation are cooperative: solvers poll the job's CancelToken in
// their outer loops; a watchdog thread promotes expired deadlines of
// queued/running jobs and counts workers busy past the stuck threshold.
// Work that finishes before noticing a stop request is delivered as kOk —
// cancel() landing first is a request, not a guarantee.
//
// Determinism guarantee: the *payload* of a kOk result(slot) depends only
// on the job spec — never on thread count, scheduling order, or whether
// the memo cache served the job — because workers always compute in
// canonical coordinates (see svc/job.hpp) and each job owns its slot.
// Only the accounting fields (cache_hit, latency_micros) and, under
// faults/deadlines, *which* jobs fail can vary run to run.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dur/store.hpp"
#include "svc/cache.hpp"
#include "svc/job.hpp"
#include "svc/metrics.hpp"
#include "svc/queue.hpp"
#include "svc/resilience.hpp"
#include "util/arena.hpp"
#include "util/cancel.hpp"

namespace tgp::svc {

/// Thrown by submit() once the service has been shut down.  A state
/// error, not an argument error: the spec may be perfectly valid.
struct ServiceStopped : std::runtime_error {
  ServiceStopped() : std::runtime_error("partition service is shut down") {}
};

struct ServiceConfig {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int threads = 0;
  /// Solves are serial; parallelism is across jobs (`threads`).  The
  /// constructor requires 1.  Kept only because
  /// perfbench/cpp/service_churn.cpp:235 sets it; delete it together
  /// with that line.
  int solve_threads = 1;
  /// Memo cache budget in bytes; 0 disables caching entirely.
  std::size_t cache_bytes = std::size_t{64} << 20;
  int cache_shards = 16;
  /// Submit blocks once this many jobs are queued (backpressure).
  std::size_t queue_capacity = 1024;
  /// Watchdog scan period in microseconds; 0 disables the watchdog
  /// (deadlines are then enforced only at dequeue and solver polls).
  double watchdog_interval_micros = 2000;
  /// A worker busy on one job longer than this counts as stuck.
  double stuck_threshold_micros = 1e6;

  // --- Admission control (svc/resilience.hpp) ------------------------
  // Both caps ship disabled: the default-configured service admits every
  // valid job and the admission path adds only an atomic increment per
  // submit (the ≤5% idle-overhead gate holds it to that).

  /// Admission cap on incomplete jobs (queued + running); a submit that
  /// would exceed it settles kOverloaded instead of enqueuing.  0 = off.
  std::size_t max_inflight = 0;
  /// Token-bucket admission rate (jobs/second); excess submits settle
  /// kOverloaded.  0 = off.
  double rate_limit_per_sec = 0;
  /// Bucket capacity; 0 defaults to one second of tokens.
  double rate_burst = 0;

  // --- Durability & integrity (src/dur, core/verify) ------------------
  // All off by default: an empty cache_dir keeps the service fully
  // in-memory and byte-identical to the previous release.

  /// Directory for the crash-safe cache store (snapshot + journal).
  /// Non-empty (with cache_bytes > 0): recovered entries are loaded at
  /// construction, every fresh solve is journaled, and corrupt entries
  /// are quarantined to a sidecar.  Empty = persistence off.
  std::string cache_dir{};
  /// Re-check every result — cache hits *and* fresh solves — with the
  /// independent O(n) verifier (core/verify.hpp).  A cache hit that
  /// fails verification is quarantined and re-solved; a fresh solve
  /// that fails settles kInternalError.  Recovery-loaded entries are
  /// verified on first hit even when this is off.
  bool verify_results = false;
  /// Per-entry byte cap for the memo cache (MemoCache ctor); oversized
  /// outcomes are rejected at put and counted.  0 = one whole shard.
  std::size_t max_entry_bytes = 0;
  /// Journal size that triggers a background snapshot compaction from
  /// the watchdog thread.  Only meaningful with a cache_dir.
  std::size_t journal_compact_bytes = std::size_t{8} << 20;
  /// fsync the journal after every append (durable against power loss,
  /// not just process crash).  Costs one fsync per solve.
  bool durable_fsync = false;
};

class PartitionService {
 public:
  explicit PartitionService(ServiceConfig config = {});
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Enqueue a job; returns its result slot (== submission index).
  /// Blocks while the queue is full; throws ServiceStopped after
  /// shutdown().  A spec that fails validate_spec still gets a slot —
  /// it settles immediately with JobStatus::kInvalidSpec and never
  /// reaches a worker.
  std::size_t submit(JobSpec spec);

  /// Completion hook for the callback overload of submit().  Runs exactly
  /// once per job, on whichever thread settles it (a worker for jobs that
  /// ran; the submitting thread for validation/admission rejects), after
  /// the result slot and status counters are final but before wait_idle()
  /// can observe the job complete.  Must not call back into the service.
  using CompletionFn =
      std::function<void(std::size_t slot, const JobResult& result)>;

  /// As submit(spec), plus a per-job completion callback — the push-mode
  /// interface the network front door (net/backend.hpp) uses to encode
  /// and send a result frame the moment the job settles, without polling.
  std::size_t submit(JobSpec spec, CompletionFn on_complete);

  /// Convenience: submit everything, wait until idle, return results in
  /// submission order.
  std::vector<JobResult> run_batch(std::vector<JobSpec> specs);

  /// Block until every job submitted so far has completed.
  void wait_idle();

  /// Request cancellation of one job.  Returns true iff the request
  /// landed before the job completed — the job will then finish with
  /// kCancelled unless it reaches a kOk/kTimeout settle first (a job
  /// mid-solve stops at its next cancel poll; a queued job is failed at
  /// dequeue).  Returns false if the job had already completed.
  bool cancel(std::size_t slot);

  /// Result for a slot returned by submit().  Valid once the job has
  /// completed (e.g. after wait_idle()); reading a slot that has not
  /// completed yet throws std::invalid_argument — poll completed(slot)
  /// or use wait_idle() first.
  const JobResult& result(std::size_t slot) const;

  /// Whether result(slot) is readable yet.
  bool completed(std::size_t slot) const;

  std::size_t jobs_submitted() const { return submitted_.load(); }

  /// Cumulative counters, cache stats, queue high-watermark, watchdog
  /// gauges and latency histograms.  Callable at any time, including
  /// while jobs run.
  MetricsSnapshot metrics() const;

  /// Stop accepting jobs, drain the queue fully, join all workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Graceful shutdown with a drain deadline: stop accepting jobs, wait
  /// up to `drain_micros` for in-flight and queued jobs to finish, then
  /// cancel whatever remains and join.  Every submitted slot is settled
  /// when this returns.  Returns true iff everything drained in time.
  bool shutdown_within(double drain_micros);

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Fold the journal into a fresh snapshot now (the watchdog does this
  /// automatically past journal_compact_bytes).  Returns false when
  /// persistence is off or the snapshot write failed.
  bool compact_cache_store();

  /// Graceful-shutdown flush: sync the journal and write the
  /// clean-shutdown marker so the next boot skips the torn-record scan.
  /// Returns the number of live cache entries made recoverable, or 0
  /// when persistence is off.  Call after the last job has settled
  /// (e.g. following shutdown_within).
  std::size_t flush_durable();

 private:
  using Clock = util::CancelToken::Clock;

  struct QueuedJob {
    std::size_t slot = 0;
    JobSpec spec;
    std::shared_ptr<util::CancelToken> cancel;
    /// Submission timestamp (service epoch) — queue-wait accounting.
    std::int64_t enqueue_micros = 0;
  };
  struct Slot {
    JobResult result;
    char done = 0;  // set before completed_++
    /// Whether this job holds an inflight-cap token (settle releases it).
    char counted_inflight = 0;
    std::shared_ptr<util::CancelToken> cancel;
    /// Moved out and invoked by settle(); empty for poll-mode submits.
    CompletionFn on_complete;
  };
  // Per-worker latency slab: uncontended in the hot path, locked only
  // against metrics() readers.  busy_since_micros (−1 when idle) is the
  // watchdog's view of what the worker is doing.  The arena and the
  // cache-hit scratch outcome live here so each worker reuses one warm
  // allocation across every job it processes — the steady-state solve
  // path touches the heap only for the cut it returns.
  struct WorkerState {
    mutable std::mutex mu;
    std::array<obs::LatencyHistogram, kProblemCount> latency{};
    obs::LatencyHistogram queue_wait;
    /// Solver counters summed over this worker's ok jobs (under mu).
    std::array<obs::SolveCounters, kProblemCount> counters{};
    std::atomic<std::int64_t> busy_since_micros{-1};
    util::Arena arena;
    CanonicalOutcome hit_scratch;
    /// Reused encode buffer for journal appends (one warm allocation).
    std::vector<std::uint8_t> record_scratch;
  };

  void worker_loop(WorkerState& state);
  void watchdog_loop();
  JobResult process(WorkerState& state, const JobSpec& spec,
                    const util::CancelToken* cancel);
  /// One memo-cache probe / one put, each under its trace span; both are
  /// no-ops when the cache is disabled.  A faulted probe is a miss and a
  /// faulted put a dropped insert (MemoCache counts both).
  bool cache_probe(const CacheKey& key, CanonicalOutcome& out,
                   CacheHitInfo* info);
  void cache_store(const CacheKey& key, const CanonicalOutcome& outcome);
  void settle(std::size_t slot, JobResult r);
  void cancel_all_incomplete();
  std::int64_t now_micros() const;
  /// Recover snapshot+journal records into the cache (constructor) and
  /// install the quarantine hook.  Only called with a cache_dir.
  void recover_cache_store();
  /// Append one solved outcome to the journal (no-op without a store).
  void journal_store(WorkerState& state, const CacheKey& key,
                     const CanonicalOutcome& outcome);

  ServiceConfig config_;
  MemoCache cache_;
  /// Crash-safe persistence (null unless config_.cache_dir is set).
  std::unique_ptr<dur::CacheStore> store_;
  BoundedQueue<QueuedJob> queue_;
  Clock::time_point epoch_ = Clock::now();

  mutable std::mutex results_mu_;
  std::deque<Slot> slots_;         // deque: stable element addresses
  std::size_t first_pending_ = 0;  // all slots before this are done

  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> failed_{0};
  std::array<std::atomic<std::uint64_t>, kJobStatusCount> by_status_{};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  std::vector<std::unique_ptr<WorkerState>> worker_state_;
  std::vector<std::thread> workers_;
  std::atomic<bool> shut_{false};

  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::atomic<std::uint64_t> watchdog_ticks_{0};
  std::atomic<std::uint64_t> deadline_cancels_{0};
  std::atomic<std::uint64_t> stuck_worker_peak_{0};

  // Admission control state + counters (see MetricsSnapshot::resilience).
  TokenBucket bucket_;
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::size_t> inflight_peak_{0};
  std::atomic<std::uint64_t> rejected_inflight_{0};
  std::atomic<std::uint64_t> rejected_rate_{0};
  std::atomic<std::uint64_t> jobs_shed_{0};

  // Integrity accounting (see MetricsSnapshot::durability).
  std::atomic<std::uint64_t> verified_ok_{0};
  std::atomic<std::uint64_t> verify_failed_{0};
  std::atomic<std::uint64_t> recovery_malformed_{0};
  std::atomic<std::uint64_t> recovery_duplicates_{0};
};

}  // namespace tgp::svc
