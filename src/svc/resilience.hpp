// Overload-protection primitives shared by the service and the network
// layer.
//
//   * TokenBucket — admission-rate limiter.  The service's submit() asks
//     for one token per job; an empty bucket means the caller is pushing
//     faster than the configured sustained rate and the job is rejected
//     up front with JobStatus::kOverloaded (cheap, before the queue is
//     touched).  The router's per-tenant quotas (svc/tenant.hpp) reuse
//     it.
//
//   * RetryPolicy — exponential backoff with jitter.  net::Client spaces
//     its re-dials with it.
//
//   * CircuitBreaker — closed/open/half-open state machine over a
//     sliding window of recent outcomes.  A fault rate above the trip
//     threshold opens the breaker; after a cooldown it admits a limited
//     number of half-open probes, and enough successes close it again
//     while one fault re-opens it.  net::ShardHealth builds a router's
//     per-shard up/down tracking on it.
//
// All time is caller-supplied microseconds, so every mechanism is
// deterministic under test — no hidden clock reads.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/rng.hpp"

namespace tgp::svc {

/// Exponential backoff schedule.  The caller bounds its own retry loop;
/// the first attempt is attempt 0 and no backoff precedes it.
struct RetryPolicy {
  double base_us = 50;     ///< backoff before the first retry
  double multiplier = 2.0; ///< growth per additional retry
  double jitter = 0.1;     ///< ± fraction of the delay, from `rng`

  /// Delay in microseconds before try number `attempt` (>= 1).  The
  /// jittered delay is sampled from `rng`, so two callers backing off at
  /// the same attempt do not thundering-herd in lockstep.
  double backoff_us(int attempt, util::Pcg32& rng) const;
};

/// Token-bucket rate limiter.  rate_per_sec <= 0 disables it (always
/// admits).  The bucket starts full (burst tokens) and refills
/// continuously at the sustained rate.
class TokenBucket {
 public:
  /// burst <= 0 defaults to max(rate_per_sec, 1) — one second of tokens.
  TokenBucket(double rate_per_sec, double burst);

  bool enabled() const { return rate_ > 0; }

  /// Take one token if available.  `now_micros` must be monotone
  /// non-decreasing across calls (the service clock); regressions are
  /// treated as no elapsed time.
  bool try_acquire(std::int64_t now_micros);

  double tokens_now(std::int64_t now_micros);

 private:
  void refill_locked(std::int64_t now_micros);

  std::mutex mu_;
  double rate_ = 0;   // tokens per second
  double burst_ = 0;  // bucket capacity
  double tokens_ = 0;
  std::int64_t last_micros_ = 0;
  bool primed_ = false;  // first acquire stamps last_micros_
};

enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// "closed" | "open" | "half_open".
const char* breaker_state_name(BreakerState s);

struct BreakerConfig {
  /// Sliding window: the most recent `window` outcomes.
  int window = 64;
  /// No trip decision before this many outcomes are in the window.
  int min_samples = 16;
  /// Fault fraction of the window at or above which the breaker opens.
  double trip_fault_rate = 0.5;
  /// Open → half-open after this long.
  double open_cooldown_us = 5000;
  /// Consecutive half-open successes required to close again.  Also the
  /// number of probe operations admitted while half-open.
  int half_open_probes = 4;
};

/// Cumulative breaker accounting (monotone counters + current state).
struct BreakerStats {
  BreakerState state = BreakerState::kClosed;
  std::uint64_t trips = 0;        ///< transitions into kOpen
  std::uint64_t half_opens = 0;   ///< transitions kOpen → kHalfOpen
  std::uint64_t closes = 0;       ///< transitions kHalfOpen → kClosed
  std::uint64_t transitions = 0;  ///< all state changes
};

class CircuitBreaker {
 public:
  /// Result of one breaker operation: the state after the call, whether
  /// the call changed it (callers emit a trace event on change), and —
  /// for allow() — whether the operation was admitted.
  struct Outcome {
    BreakerState state = BreakerState::kClosed;
    bool transitioned = false;
    bool admitted = true;
  };

  explicit CircuitBreaker(BreakerConfig config = {});

  /// May the caller try the guarded operation now?  Closed: yes.  Open:
  /// no — until `open_cooldown_us` has elapsed, at which point the call
  /// itself transitions to half-open and admits.  Half-open: yes for up
  /// to `half_open_probes` outstanding probes, no beyond that.
  Outcome allow(std::int64_t now_micros);

  /// Report the outcome of an admitted operation.
  Outcome record_success(std::int64_t now_micros);
  Outcome record_fault(std::int64_t now_micros);

  /// Force the breaker open right now, bypassing the sliding window —
  /// for failures that need no statistics, e.g. the guarded peer's
  /// connection dropping (net::ShardHealth on a backend disconnect).
  /// A no-op when already open.
  Outcome trip(std::int64_t now_micros);

  BreakerState state() const;
  BreakerStats stats() const;

 private:
  Outcome transition_locked(BreakerState next);
  double fault_rate_locked() const;

  BreakerConfig config_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  /// Ring of recent outcomes (true = fault), meaningful in kClosed.
  std::vector<char> window_;
  int window_size_ = 0;  // filled entries, <= window_.size()
  int window_pos_ = 0;   // next write position
  int window_faults_ = 0;
  std::int64_t opened_micros_ = 0;   // entry time into kOpen
  int half_open_inflight_ = 0;       // probes admitted while half-open
  int half_open_successes_ = 0;
  BreakerStats stats_;
};

}  // namespace tgp::svc
