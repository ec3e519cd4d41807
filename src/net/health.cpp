#include "net/health.hpp"

namespace tgp::net {

namespace {

svc::BreakerConfig breaker_config(const ShardHealthConfig& c) {
  svc::BreakerConfig b;
  // window == min_samples == fail_threshold with a 1.0 trip rate means
  // the breaker opens exactly when the last fail_threshold outcomes
  // were all misses — consecutive-miss semantics.
  b.window = c.fail_threshold;
  b.min_samples = c.fail_threshold;
  b.trip_fault_rate = 1.0;
  b.open_cooldown_us = c.down_cooldown_us;
  b.half_open_probes = c.recover_probes;
  return b;
}

}  // namespace

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::kUp:
      return "up";
    case ShardState::kSuspect:
      return "suspect";
    case ShardState::kDown:
      return "down";
    case ShardState::kRecovering:
      return "recovering";
  }
  return "?";
}

ShardHealth::ShardHealth(const ShardHealthConfig& config)
    : breaker_(breaker_config(config)) {}

ShardState ShardHealth::state() const {
  switch (breaker_.state()) {
    case svc::BreakerState::kClosed:
      return consecutive_misses_ > 0 ? ShardState::kSuspect : ShardState::kUp;
    case svc::BreakerState::kOpen:
      return ShardState::kDown;
    case svc::BreakerState::kHalfOpen:
      return ShardState::kRecovering;
  }
  return ShardState::kDown;
}

template <class Fn>
ShardHealth::Event ShardHealth::apply(Fn&& fn) {
  const ShardState before = state();
  fn();
  const ShardState after = state();
  return {after, after != before};
}

ShardHealth::Event ShardHealth::probe_ok(std::int64_t now_micros) {
  return apply([&] {
    consecutive_misses_ = 0;
    if (breaker_.state() != svc::BreakerState::kOpen)
      breaker_.record_success(now_micros);
    // A pong while down is a stale answer from a connection we already
    // gave up on: recovery goes through reconnect_due, not here.
  });
}

ShardHealth::Event ShardHealth::probe_miss(std::int64_t now_micros) {
  return apply([&] {
    if (breaker_.state() == svc::BreakerState::kOpen) return;
    ++consecutive_misses_;
    if (breaker_.record_fault(now_micros).state == svc::BreakerState::kOpen)
      consecutive_misses_ = 0;  // suspect bookkeeping is meaningless down
  });
}

ShardHealth::Event ShardHealth::disconnected(std::int64_t now_micros) {
  return apply([&] {
    consecutive_misses_ = 0;
    breaker_.trip(now_micros);
  });
}

bool ShardHealth::reconnect_due(std::int64_t now_micros) {
  if (breaker_.state() != svc::BreakerState::kOpen) return false;
  // allow() transitions open → half-open once the cooldown elapses and
  // admits the first probe: the reconnect attempt itself.
  return breaker_.allow(now_micros).admitted;
}

ShardHealth::Event ShardHealth::reconnect_succeeded(std::int64_t now_micros) {
  return apply([&] {
    consecutive_misses_ = 0;
    // The completed TCP handshake is the first successful probe.
    breaker_.record_success(now_micros);
  });
}

ShardHealth::Event ShardHealth::reconnect_failed(std::int64_t now_micros) {
  return apply([&] {
    consecutive_misses_ = 0;
    // A half-open fault re-opens immediately, restarting the cooldown.
    breaker_.record_fault(now_micros);
  });
}

bool ShardHealth::recovery_probe_due(std::int64_t now_micros) {
  if (breaker_.state() != svc::BreakerState::kHalfOpen) return false;
  return breaker_.allow(now_micros).admitted;
}

}  // namespace tgp::net
