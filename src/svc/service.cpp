#include "svc/service.hpp"

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/verify.hpp"
#include "obs/trace.hpp"
#include "svc/persist.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace tgp::svc {

namespace {

std::chrono::microseconds to_duration(double micros) {
  return std::chrono::microseconds(
      static_cast<std::int64_t>(micros < 0 ? 0 : micros));
}

// How the independent verifier should read CanonicalOutcome::objective
// for each problem.  kPipeline gets the *bound* check: the solver
// reports the bottleneck-stage threshold but returns a subset of that
// stage's cut, whose own max edge may be strictly smaller.
core::VerifyObjective verify_objective_for(Problem p) {
  switch (p) {
    case Problem::kBottleneck: return core::VerifyObjective::kBottleneck;
    case Problem::kProcMin:    return core::VerifyObjective::kComponents;
    case Problem::kBandwidth:  return core::VerifyObjective::kTotalWeight;
    case Problem::kPipeline:   return core::VerifyObjective::kBottleneckBound;
  }
  return core::VerifyObjective::kTotalWeight;  // unreachable
}

core::CutCheck verify_canonical(Problem problem, const graph::Chain& chain,
                                graph::Weight K, const CanonicalOutcome& o) {
  return core::verify_chain_cut(chain, K, o.cut, verify_objective_for(problem),
                                o.objective, o.components);
}

core::CutCheck verify_canonical(Problem problem, const graph::Tree& tree,
                                graph::Weight K, const CanonicalOutcome& o) {
  return core::verify_tree_cut(tree, K, o.cut, verify_objective_for(problem),
                               o.objective, o.components);
}

CanonicalOutcome solve_canonical(Problem problem, const graph::Chain& chain,
                                 graph::Weight K,
                                 const util::CancelToken* cancel,
                                 util::Arena* arena) {
  return solve_canonical_chain(problem, chain, K, cancel, arena);
}

CanonicalOutcome solve_canonical(Problem problem, const graph::Tree& tree,
                                 graph::Weight K,
                                 const util::CancelToken* cancel,
                                 util::Arena* arena) {
  return solve_canonical_tree(problem, tree, K, cancel, arena);
}

}  // namespace

PartitionService::PartitionService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_bytes, config.cache_shards,
             config.max_entry_bytes),
      queue_(config.queue_capacity),
      bucket_(config.rate_limit_per_sec, config.rate_burst) {
  int threads = config.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  TGP_REQUIRE(threads <= 4096, "unreasonable worker count");
  TGP_REQUIRE(config.watchdog_interval_micros >= 0 &&
                  config.stuck_threshold_micros >= 0,
              "watchdog periods must be non-negative");
  TGP_REQUIRE(config.solve_threads == 1,
              "solves are serial: solve_threads must be 1");
  // Warm-start before any worker can race a probe: recovery happens on
  // this thread, so the first job already sees the recovered entries.
  if (!config_.cache_dir.empty() && config_.cache_bytes > 0)
    recover_cache_store();
  worker_state_.reserve(static_cast<std::size_t>(threads));
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    worker_state_.push_back(std::make_unique<WorkerState>());
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back(&PartitionService::worker_loop, this,
                          std::ref(*worker_state_[static_cast<std::size_t>(i)]));
  if (config_.watchdog_interval_micros > 0)
    watchdog_ = std::thread(&PartitionService::watchdog_loop, this);
}

PartitionService::~PartitionService() { shutdown(); }

void PartitionService::recover_cache_store() {
  dur::CacheStore::Config sc;
  sc.dir = config_.cache_dir;
  sc.epoch = kCacheRecordEpoch;
  sc.compact_threshold_bytes = config_.journal_compact_bytes;
  sc.fsync_each_append = config_.durable_fsync;
  store_ = std::make_unique<dur::CacheStore>(sc);
  // Replay in file order into a map so the *last* record for a
  // fingerprint wins — a re-solve after an eviction journals a fresh
  // copy, and snapshot + journal may both carry the key.
  std::unordered_map<CacheKey, CanonicalOutcome, CacheKeyHash> latest;
  std::uint64_t decoded = 0;
  store_->load([&](std::span<const std::uint8_t> record) {
    CacheKey key;
    CanonicalOutcome outcome;
    if (!decode_cache_record(record, key, outcome)) {
      recovery_malformed_.fetch_add(1);
      return;
    }
    ++decoded;
    latest[key] = std::move(outcome);
  });
  recovery_duplicates_.store(decoded - latest.size());
  for (const auto& [key, outcome] : latest)
    cache_.load_recovered(key, outcome);
  // Corrupt entries detected at hit time are preserved for post-mortem
  // in the store's quarantine sidecar before being dropped.
  cache_.set_quarantine([this](const CacheKey& key,
                               const CanonicalOutcome& outcome) {
    store_->quarantine(encode_cache_record(key, outcome));
  });
}

void PartitionService::journal_store(WorkerState& state, const CacheKey& key,
                                     const CanonicalOutcome& outcome) {
  if (!store_) return;
  TGP_SPAN("svc", "journal.append");
  state.record_scratch.clear();
  encode_cache_record(state.record_scratch, key, outcome);
  store_->append(state.record_scratch);
}

bool PartitionService::compact_cache_store() {
  if (!store_) return false;
  TGP_SPAN("svc", "journal.compact");
  // compact_with collects under the store lock: a concurrent solve's
  // put+append pair either lands in the collected state or re-appends
  // to the fresh journal — never in the truncated gap between.
  return store_->compact_with(
      [&](std::vector<std::vector<std::uint8_t>>& records) {
        cache_.for_each(
            [&](const CacheKey& key, const CanonicalOutcome& outcome) {
              records.push_back(encode_cache_record(key, outcome));
            });
      });
}

std::size_t PartitionService::flush_durable() {
  if (!store_) return 0;
  if (!store_->flush_clean()) return 0;
  return cache_.stats().entries;
}

std::int64_t PartitionService::now_micros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

std::size_t PartitionService::submit(JobSpec spec) {
  return submit(std::move(spec), CompletionFn());
}

std::size_t PartitionService::submit(JobSpec spec, CompletionFn on_complete) {
  TGP_SPAN("svc", "submit");
  if (shut_.load()) throw ServiceStopped();
  SpecCheck check = validate_spec(spec);
  // Admission control: decide *before* the queue is touched whether this
  // job may enter at all.  The span is emitted for every submit — a
  // disabled resilience layer still records how long admission took
  // (effectively nothing), which keeps trace-validation rules uniform.
  const char* reject_why = nullptr;
  bool counted = false;
  {
    TGP_SPAN("svc", "admission");
    if (check.ok()) {
      if (config_.max_inflight > 0) {
        // fetch_add-then-check keeps the cap race-free: the token is
        // taken optimistically and returned on rejection, so two racing
        // submits can never both slip under the cap.
        std::size_t cur = inflight_.fetch_add(1) + 1;
        if (cur > config_.max_inflight) {
          inflight_.fetch_sub(1);
          rejected_inflight_.fetch_add(1);
          reject_why = "admission: inflight cap reached";
        } else {
          counted = true;
          std::size_t peak = inflight_peak_.load();
          while (cur > peak &&
                 !inflight_peak_.compare_exchange_weak(peak, cur)) {
          }
        }
      }
      if (reject_why == nullptr && bucket_.enabled() &&
          !bucket_.try_acquire(now_micros())) {
        if (counted) {
          inflight_.fetch_sub(1);
          counted = false;
        }
        rejected_rate_.fetch_add(1);
        reject_why = "admission: rate limit exceeded";
      }
    }
  }
  std::shared_ptr<util::CancelToken> token;
  if (check.ok() && reject_why == nullptr) {
    token = std::make_shared<util::CancelToken>();
    if (spec.deadline_micros > 0)
      token->set_deadline(Clock::now() + to_duration(spec.deadline_micros));
  }
  std::size_t slot;
  {
    std::lock_guard lk(results_mu_);
    slot = slots_.size();
    slots_.emplace_back();
    slots_[slot].cancel = token;
    slots_[slot].counted_inflight = counted ? 1 : 0;
    slots_[slot].on_complete = std::move(on_complete);
  }
  submitted_.fetch_add(1);
  if (!check.ok()) {
    // Reject up front: the slot settles without ever touching the queue,
    // so one malformed spec cannot block or poison a worker.
    settle(slot, failed_result(check.status, std::move(check.error)));
    return slot;
  }
  if (reject_why != nullptr) {
    // Overload rejection settles the same way — the caller still gets a
    // slot (run_batch/wait_idle bookkeeping is unchanged), just one that
    // completed kOverloaded without consuming queue or worker time.
    settle(slot, failed_result(JobStatus::kOverloaded, reject_why));
    return slot;
  }
  bool queued =
      queue_.push(QueuedJob{slot, std::move(spec), token, now_micros()});
  if (!queued) {
    // Lost the race against shutdown(): settle the slot so wait_idle()
    // callers are not left hanging, then report the refusal.
    settle(slot, failed_result(JobStatus::kCancelled,
                               "service shut down before the job ran"));
    throw ServiceStopped();
  }
  return slot;
}

std::vector<JobResult> PartitionService::run_batch(std::vector<JobSpec> specs) {
  std::vector<std::size_t> slots;
  slots.reserve(specs.size());
  for (JobSpec& s : specs) slots.push_back(submit(std::move(s)));
  wait_idle();
  std::vector<JobResult> out;
  out.reserve(slots.size());
  for (std::size_t slot : slots) out.push_back(result(slot));
  return out;
}

void PartitionService::wait_idle() {
  std::unique_lock lk(idle_mu_);
  idle_cv_.wait(lk, [&] { return completed_.load() >= submitted_.load(); });
}

bool PartitionService::cancel(std::size_t slot) {
  std::lock_guard lk(results_mu_);
  TGP_REQUIRE(slot < slots_.size(), "unknown result slot");
  if (slots_[slot].done) return false;
  // Validation failures settle before submit returns, so an undone slot
  // always carries a token.
  slots_[slot].cancel->request_cancel();
  return true;
}

const JobResult& PartitionService::result(std::size_t slot) const {
  std::lock_guard lk(results_mu_);
  TGP_REQUIRE(slot < slots_.size(), "unknown result slot");
  TGP_REQUIRE(slots_[slot].done != 0, "job has not completed yet");
  // Safe to hand out: deque addresses are stable and the slot is final.
  return slots_[slot].result;
}

bool PartitionService::completed(std::size_t slot) const {
  std::lock_guard lk(results_mu_);
  TGP_REQUIRE(slot < slots_.size(), "unknown result slot");
  return slots_[slot].done != 0;
}

MetricsSnapshot PartitionService::metrics() const {
  MetricsSnapshot m;
  m.submitted = submitted_.load();
  m.completed = completed_.load();
  m.failed = failed_.load();
  for (int s = 0; s < kJobStatusCount; ++s)
    m.by_status[static_cast<std::size_t>(s)] =
        by_status_[static_cast<std::size_t>(s)].load();
  m.cache = cache_.stats();
  m.queue_high_watermark = queue_.high_watermark();
  m.queue_capacity = queue_.capacity();
  m.threads = static_cast<int>(workers_.size());
  m.watchdog_ticks = watchdog_ticks_.load();
  m.deadline_cancels = deadline_cancels_.load();
  m.stuck_worker_peak = stuck_worker_peak_.load();
  m.resilience.max_inflight = config_.max_inflight;
  m.resilience.inflight_now = inflight_.load();
  m.resilience.inflight_peak = inflight_peak_.load();
  m.resilience.rejected_inflight = rejected_inflight_.load();
  m.resilience.rejected_rate = rejected_rate_.load();
  m.resilience.jobs_shed = jobs_shed_.load();
  m.durability.verified_ok = verified_ok_.load();
  m.durability.verify_failed = verify_failed_.load();
  if (store_) {
    m.durability.enabled = true;
    m.durability.clean_start = store_->clean_start();
    m.durability.recovered_entries = m.cache.recovered_entries;
    m.durability.warm_hits = m.cache.warm_hits;
    const dur::LoadStats& ls = store_->load_stats();
    m.durability.dropped_crc = ls.dropped_crc;
    m.durability.dropped_truncated = ls.dropped_truncated;
    m.durability.dropped_stale_epoch = ls.dropped_stale_epoch;
    m.durability.dropped_malformed = recovery_malformed_.load();
    m.durability.duplicates = recovery_duplicates_.load();
    const dur::CacheStore::Stats ss = store_->stats();
    m.durability.journal_appends = ss.appends;
    m.durability.journal_bytes = ss.journal_bytes;
    m.durability.append_failures = ss.append_failures;
    m.durability.compactions = ss.compactions;
    m.durability.quarantined = ss.quarantined;
  }
  std::int64_t now = now_micros();
  for (const auto& ws : worker_state_) {
    std::int64_t busy = ws->busy_since_micros.load();
    if (busy >= 0 &&
        static_cast<double>(now - busy) > config_.stuck_threshold_micros)
      ++m.stuck_workers_now;
    std::lock_guard lk(ws->mu);
    for (int p = 0; p < kProblemCount; ++p) {
      m.latency_by_problem[static_cast<std::size_t>(p)].merge(
          ws->latency[static_cast<std::size_t>(p)]);
      m.counters_by_problem[static_cast<std::size_t>(p)].merge(
          ws->counters[static_cast<std::size_t>(p)]);
    }
    m.queue_wait.merge(ws->queue_wait);
  }
  return m;
}

void PartitionService::cancel_all_incomplete() {
  std::lock_guard lk(results_mu_);
  for (std::size_t s = first_pending_; s < slots_.size(); ++s)
    if (!slots_[s].done && slots_[s].cancel) slots_[s].cancel->request_cancel();
}

void PartitionService::shutdown() { shutdown_within(-1); }

bool PartitionService::shutdown_within(double drain_micros) {
  bool drained = true;
  if (!shut_.exchange(true)) {
    if (drain_micros >= 0) {
      {
        std::unique_lock lk(idle_mu_);
        drained = idle_cv_.wait_for(lk, to_duration(drain_micros), [&] {
          return completed_.load() >= submitted_.load();
        });
      }
      // Past the drain deadline: ask every outstanding job to stop.  The
      // workers settle them (kCancelled) as they pop or poll, so the join
      // below still terminates promptly.
      if (!drained) cancel_all_incomplete();
    }
    queue_.close();
    {
      std::lock_guard lk(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
  }
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  if (watchdog_.joinable()) watchdog_.join();
  return drained;
}

void PartitionService::settle(std::size_t slot, JobResult r) {
  bool failed = !r.ok;
  JobStatus status = r.status;
  bool release_inflight = false;
  CompletionFn on_complete;
  const JobResult* settled = nullptr;
  {
    std::lock_guard lk(results_mu_);
    release_inflight = slots_[slot].counted_inflight != 0;
    slots_[slot].counted_inflight = 0;
    slots_[slot].result = std::move(r);
    settled = &slots_[slot].result;
    slots_[slot].done = 1;
    on_complete = std::move(slots_[slot].on_complete);
    slots_[slot].on_complete = nullptr;
    while (first_pending_ < slots_.size() && slots_[first_pending_].done)
      ++first_pending_;
  }
  if (release_inflight) inflight_.fetch_sub(1);
  if (failed) failed_.fetch_add(1);
  by_status_[static_cast<std::size_t>(status)].fetch_add(1);
  // Outside every lock (the hook may do arbitrary work — the network
  // backend encodes and queues a frame here), but before the completed
  // count releases wait_idle() waiters.  The result is read through the
  // address taken under the lock: element addresses are stable and a
  // settled slot is never written again, but slots_[slot] itself would
  // read the deque's block map, which a concurrent submit() may be
  // reallocating.
  if (on_complete) on_complete(slot, *settled);
  {
    std::lock_guard lk(idle_mu_);
    completed_.fetch_add(1);
  }
  idle_cv_.notify_all();
}

void PartitionService::worker_loop(WorkerState& state) {
  {
    // Stable worker index for trace exports; registration is cheap and
    // happens whether or not tracing ever turns on.
    std::size_t idx = 0;
    for (; idx < worker_state_.size(); ++idx)
      if (worker_state_[idx].get() == &state) break;
    obs::trace::set_thread_name("worker-" + std::to_string(idx));
  }
  while (auto job = queue_.pop()) {
    // Install the job's distributed-trace context (no-op when unsampled):
    // the queue.wait/shed emissions and every span under process() then
    // carry the originating request's trace id and parent.
    obs::ContextScope job_trace(job->spec.trace);
    const util::CancelToken* token = job->cancel.get();
    JobResult r;
    double micros = 0;
    Problem problem = job->spec.problem;
    const std::int64_t dequeued = now_micros();
    const double wait_micros =
        static_cast<double>(dequeued - job->enqueue_micros);
    if (token->stop_requested() || token->deadline_expired()) {
      // Shed at dequeue: cancelled while queued, or the deadline passed
      // before any work started — fail fast without touching the solver.
      // Sheds get their own span and counter and stay *out* of the
      // queue-wait histogram: a shed job waited, by definition, longer
      // than its budget, and folding those waits in used to skew the
      // reported p95 of jobs that actually ran.
      if (obs::trace::enabled()) {
        const std::int64_t end_ns = obs::trace::now_ns();
        obs::trace::emit_complete(
            "svc", "queue.shed",
            end_ns - static_cast<std::int64_t>(wait_micros * 1e3), end_ns,
            {"slot", static_cast<std::int64_t>(job->slot)});
      }
      jobs_shed_.fetch_add(1);
      token->try_set(util::CancelReason::kDeadline);
      r = failed_result(token->reason() == util::CancelReason::kDeadline
                            ? JobStatus::kTimeout
                            : JobStatus::kCancelled,
                        token->reason() == util::CancelReason::kDeadline
                            ? "deadline expired before the job started"
                            : "cancelled before the job started");
    } else {
      if (obs::trace::enabled()) {
        // The wait started on the submitting thread; reconstruct its
        // start from the measured wait so the span nests under this
        // worker's job.
        const std::int64_t end_ns = obs::trace::now_ns();
        obs::trace::emit_complete(
            "svc", "queue.wait",
            end_ns - static_cast<std::int64_t>(wait_micros * 1e3), end_ns,
            {"slot", static_cast<std::int64_t>(job->slot)});
      }
      state.busy_since_micros.store(dequeued);
      {
        obs::Span job_span("svc", "job");
        job_span.arg("slot", static_cast<std::int64_t>(job->slot));
        util::ScopedTimer timer(micros);
        r = process(state, job->spec, token);
        job_span.arg("cache_hit", r.cache_hit ? 1 : 0);
      }
      state.busy_since_micros.store(-1);
      r.latency_micros = micros;
      std::lock_guard lk(state.mu);
      state.latency[static_cast<std::size_t>(problem)].record(micros);
      state.queue_wait.record(wait_micros);
      if (r.ok)
        state.counters[static_cast<std::size_t>(problem)].merge(r.counters);
    }
    settle(job->slot, std::move(r));
  }
}

void PartitionService::watchdog_loop() {
  std::unique_lock lk(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lk, to_duration(config_.watchdog_interval_micros),
                          [&] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    watchdog_ticks_.fetch_add(1);
    // Promote expired deadlines of queued/running jobs so even a solver
    // between polls is asked to stop as soon as possible.
    {
      std::lock_guard rk(results_mu_);
      for (std::size_t s = first_pending_; s < slots_.size(); ++s) {
        const Slot& slot = slots_[s];
        if (slot.done || !slot.cancel) continue;
        if (slot.cancel->deadline_expired() &&
            slot.cancel->try_set(util::CancelReason::kDeadline))
          deadline_cancels_.fetch_add(1);
      }
    }
    // Count workers busy on one job past the stuck threshold.
    std::int64_t now = now_micros();
    std::uint64_t stuck = 0;
    for (const auto& ws : worker_state_) {
      std::int64_t busy = ws->busy_since_micros.load();
      if (busy >= 0 &&
          static_cast<double>(now - busy) > config_.stuck_threshold_micros)
        ++stuck;
    }
    std::uint64_t peak = stuck_worker_peak_.load();
    while (stuck > peak && !stuck_worker_peak_.compare_exchange_weak(peak, stuck)) {
    }
    // Fold an oversized journal into a fresh snapshot.  Piggybacking on
    // the watchdog keeps compaction off the solve path; workers append
    // concurrently and anything journaled mid-compaction simply replays
    // on top of the snapshot at the next boot.
    if (store_ && store_->wants_compaction()) compact_cache_store();
  }
}

bool PartitionService::cache_probe(const CacheKey& key, CanonicalOutcome& out,
                                   CacheHitInfo* info) {
  if (config_.cache_bytes == 0) return false;
  TGP_SPAN("svc", "cache.probe");
  return cache_.get_into(key, out, info);
}

void PartitionService::cache_store(const CacheKey& key,
                                   const CanonicalOutcome& outcome) {
  if (config_.cache_bytes == 0) return;
  TGP_SPAN("svc", "cache.store");
  cache_.put(key, outcome);
}

JobResult PartitionService::process(WorkerState& state, const JobSpec& spec,
                                    const util::CancelToken* cancel) {
  JobResult r;
  // The rest of a job once its cache key and its map back are known.  A
  // plain hit maps the cached cut back through `back` alone; `canonical`
  // builds the canonical graph the first time a verify or solve step
  // reads it.
  auto serve = [&](const CacheKey& key, const auto& back, auto&& canonical) {
    CacheHitInfo hit_info;
    bool hit = cache_probe(key, state.hit_scratch, &hit_info);
    if (hit && (hit_info.needs_verify || config_.verify_results)) {
      // A recovery-loaded entry crossed a process boundary; re-check
      // it with the independent verifier before serving.  A failure
      // quarantines the entry and falls through to a fresh solve.
      TGP_SPAN("svc", "verify");
      core::CutCheck check = verify_canonical(spec.problem, canonical(),
                                              spec.K, state.hit_scratch);
      if (check.ok) {
        if (hit_info.needs_verify) cache_.mark_verified(key);
        verified_ok_.fetch_add(1);
      } else {
        verify_failed_.fetch_add(1);
        // quarantine_erase routes the entry through the quarantine
        // hook, which lands the bytes in the store's sidecar.
        cache_.quarantine_erase(key);
        hit = false;
      }
    }
    if (hit) {
      apply_outcome(r, state.hit_scratch, back);
      r.cache_hit = true;
      return;
    }
    CanonicalOutcome o = [&] {
      TGP_SPAN("svc", "solve");
      // The solver's first poll comes after the canonical copy and its
      // CSR build, which on a giant graph outlast a short deadline.
      if (cancel != nullptr) cancel->poll();
      return solve_canonical(spec.problem, canonical(), spec.K, cancel,
                             &state.arena);
    }();
    if (config_.verify_results) {
      TGP_SPAN("svc", "verify");
      core::CutCheck check =
          verify_canonical(spec.problem, canonical(), spec.K, o);
      TGP_ENSURE(check.ok, "result verification failed: " + check.detail);
      verified_ok_.fetch_add(1);
    }
    apply_outcome(r, o, back);
    cache_store(key, o);
    journal_store(state, key, o);
  };
  try {
    if (util::faults().fire("svc.worker.solve"))
      throw util::InjectedFault("svc.worker.solve");
    if (spec.is_chain()) {
      // The fingerprint absorbs the chain in its canonical orientation,
      // so the key and that orientation are all a hit needs.  validate_spec
      // checked the chain at submit.
      const graph::Chain& chain = *spec.chain;
      const auto [fingerprint, orientation] = [&] {
        TGP_SPAN("svc", "canonicalize");
        return std::pair{graph::chain_fingerprint(chain),
                         graph::chain_orientation(chain)};
      }();
      std::optional<graph::CanonicalChain> canon;
      serve(CacheKey::make(fingerprint, spec.problem, spec.K), orientation,
            [&]() -> const graph::Chain& {
              if (!canon) canon.emplace(graph::canonical_chain(chain));
              return canon->chain;
            });
    } else {
      // The tree keeps its key once a job has computed it, so a job on a
      // tree keyed before hashes nothing for a hit.  The job that
      // computes the key also gets the labelling's vertex order, and a
      // miss or verify builds the canonical tree from the key and it; on
      // a tree keyed before, that step runs canonical_tree.  Either way no
      // job hashes twice.
      const graph::Tree& tree = *spec.tree;
      std::optional<graph::TreeOrder> order;
      const graph::TreeKey& key = [&]() -> const graph::TreeKey& {
        obs::Span span("svc", "canonicalize");
        const graph::TreeKey& k = tree.canonical_key(&state.arena, &order);
        span.arg("computed", order ? 1 : 0);
        return k;
      }();
      std::optional<graph::Tree> canon;
      serve(CacheKey::make(key.fingerprint, spec.problem, spec.K), key,
            [&]() -> const graph::Tree& {
              if (!canon)
                canon.emplace(
                    order ? graph::build_canonical_tree(tree, key, *order)
                          : graph::canonical_tree(tree, &state.arena).tree);
              return *canon;
            });
    }
  } catch (...) {
    // The worker's catch-all boundary: any escape — solver contract
    // violation, injected fault, bad_alloc, cancellation — becomes a
    // failed slot, never a dead worker or std::terminate.
    auto [status, error] = classify_exception(std::current_exception());
    r = failed_result(status, std::move(error));
  }
  return r;
}

}  // namespace tgp::svc
