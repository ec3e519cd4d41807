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
// All time is caller-supplied microseconds, and the jitter comes from a
// caller-supplied RNG, so both are deterministic under test — no hidden
// clock reads.
#pragma once

#include <cstdint>
#include <mutex>

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

}  // namespace tgp::svc
