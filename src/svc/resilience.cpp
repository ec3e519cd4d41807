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

}  // namespace tgp::svc
