#include "svc/resilience.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace tgp::svc {

double RetryPolicy::backoff_us(int attempt, util::Pcg32& rng) const {
  TGP_REQUIRE(attempt >= 1, "backoff precedes a retry, not the first try");
  double delay = base_us;
  for (int i = 1; i < attempt; ++i) delay *= multiplier;
  if (jitter > 0) {
    const double j = std::min(jitter, 1.0);
    delay *= rng.uniform_real(1.0 - j, 1.0 + j);
  }
  return std::max(delay, 0.0);
}

TokenBucket::TokenBucket(double rate_per_sec, double burst) {
  TGP_REQUIRE(!(rate_per_sec > 0) || rate_per_sec == rate_per_sec,
              "rate must be a number");
  if (rate_per_sec <= 0) return;  // disabled
  rate_ = rate_per_sec;
  burst_ = burst > 0 ? burst : std::max(rate_per_sec, 1.0);
  tokens_ = burst_;
}

void TokenBucket::refill_locked(std::int64_t now_micros) {
  if (!primed_) {
    primed_ = true;
    last_micros_ = now_micros;
    return;
  }
  if (now_micros <= last_micros_) return;
  const double elapsed_s =
      static_cast<double>(now_micros - last_micros_) * 1e-6;
  tokens_ = std::min(burst_, tokens_ + elapsed_s * rate_);
  last_micros_ = now_micros;
}

bool TokenBucket::try_acquire(std::int64_t now_micros) {
  if (!enabled()) return true;
  std::lock_guard lk(mu_);
  refill_locked(now_micros);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::tokens_now(std::int64_t now_micros) {
  if (!enabled()) return 0;
  std::lock_guard lk(mu_);
  refill_locked(now_micros);
  return tokens_;
}

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(BreakerConfig config) : config_(config) {
  TGP_REQUIRE(config_.window >= 1, "breaker window must be >= 1");
  TGP_REQUIRE(config_.min_samples >= 1, "breaker min_samples must be >= 1");
  TGP_REQUIRE(config_.trip_fault_rate > 0 && config_.trip_fault_rate <= 1,
              "breaker trip rate must be in (0,1]");
  TGP_REQUIRE(config_.half_open_probes >= 1,
              "breaker needs at least one half-open probe");
  window_.assign(static_cast<std::size_t>(config_.window), 0);
}

CircuitBreaker::Outcome CircuitBreaker::transition_locked(BreakerState next) {
  state_ = next;
  ++stats_.transitions;
  switch (next) {
    case BreakerState::kOpen:
      ++stats_.trips;
      break;
    case BreakerState::kHalfOpen:
      ++stats_.half_opens;
      half_open_inflight_ = 0;
      half_open_successes_ = 0;
      break;
    case BreakerState::kClosed:
      ++stats_.closes;
      // Fresh window: pre-trip history must not re-trip the breaker.
      std::fill(window_.begin(), window_.end(), 0);
      window_size_ = window_pos_ = window_faults_ = 0;
      break;
  }
  return {state_, true};
}

double CircuitBreaker::fault_rate_locked() const {
  return window_size_ == 0 ? 0.0
                           : static_cast<double>(window_faults_) /
                                 static_cast<double>(window_size_);
}

CircuitBreaker::Outcome CircuitBreaker::allow(std::int64_t now_micros) {
  std::lock_guard lk(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return {state_, false, true};
    case BreakerState::kOpen:
      if (static_cast<double>(now_micros - opened_micros_) <
          config_.open_cooldown_us)
        return {state_, false, false};
      {
        Outcome o = transition_locked(BreakerState::kHalfOpen);
        ++half_open_inflight_;
        o.admitted = true;
        return o;
      }
    case BreakerState::kHalfOpen:
      if (half_open_inflight_ >= config_.half_open_probes)
        return {state_, false, false};
      ++half_open_inflight_;
      return {state_, false, true};
  }
  return {state_, false, false};
}

CircuitBreaker::Outcome CircuitBreaker::record_success(
    std::int64_t now_micros) {
  (void)now_micros;
  std::lock_guard lk(mu_);
  if (state_ == BreakerState::kHalfOpen) {
    if (++half_open_successes_ >= config_.half_open_probes)
      return transition_locked(BreakerState::kClosed);
    return {state_, false};
  }
  if (state_ != BreakerState::kClosed) return {state_, false};
  const char prev = window_[static_cast<std::size_t>(window_pos_)];
  if (window_size_ == config_.window) {
    window_faults_ -= prev;
  } else {
    ++window_size_;
  }
  window_[static_cast<std::size_t>(window_pos_)] = 0;
  window_pos_ = (window_pos_ + 1) % config_.window;
  return {state_, false};
}

CircuitBreaker::Outcome CircuitBreaker::record_fault(std::int64_t now_micros) {
  std::lock_guard lk(mu_);
  if (state_ == BreakerState::kHalfOpen) {
    // One fault during the probe phase re-opens immediately.
    opened_micros_ = now_micros;
    return transition_locked(BreakerState::kOpen);
  }
  if (state_ != BreakerState::kClosed) return {state_, false};
  const char prev = window_[static_cast<std::size_t>(window_pos_)];
  if (window_size_ == config_.window) {
    window_faults_ -= prev;
  } else {
    ++window_size_;
  }
  window_[static_cast<std::size_t>(window_pos_)] = 1;
  ++window_faults_;
  window_pos_ = (window_pos_ + 1) % config_.window;
  if (window_size_ >= config_.min_samples &&
      fault_rate_locked() >= config_.trip_fault_rate) {
    opened_micros_ = now_micros;
    return transition_locked(BreakerState::kOpen);
  }
  return {state_, false};
}

CircuitBreaker::Outcome CircuitBreaker::trip(std::int64_t now_micros) {
  std::lock_guard lk(mu_);
  if (state_ == BreakerState::kOpen) return {state_, false};
  opened_micros_ = now_micros;
  return transition_locked(BreakerState::kOpen);
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard lk(mu_);
  return state_;
}

BreakerStats CircuitBreaker::stats() const {
  std::lock_guard lk(mu_);
  BreakerStats out = stats_;
  out.state = state_;
  return out;
}

}  // namespace tgp::svc
