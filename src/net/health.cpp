#include "net/health.hpp"

#include "util/assert.hpp"

namespace tgp::net {

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

ShardHealth::ShardHealth(const ShardHealthConfig& config) : config_(config) {
  TGP_REQUIRE(config_.fail_threshold >= 1,
              "a shard goes down after at least one miss");
  TGP_REQUIRE(config_.recover_probes >= 1,
              "a shard recovers after at least one probe");
}

ShardState ShardHealth::state() const {
  switch (phase_) {
    case Phase::kServing:
      return misses_ > 0 ? ShardState::kSuspect : ShardState::kUp;
    case Phase::kDown:
      return ShardState::kDown;
    case Phase::kRecovering:
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

void ShardHealth::go_down(std::int64_t now_micros) {
  phase_ = Phase::kDown;
  misses_ = 0;
  down_since_us_ = now_micros;
}

ShardHealth::Event ShardHealth::probe_ok(std::int64_t /*now_micros*/) {
  return apply([&] {
    if (phase_ == Phase::kServing) {
      misses_ = 0;
    } else if (phase_ == Phase::kRecovering &&
               ++probes_answered_ >= config_.recover_probes) {
      phase_ = Phase::kServing;
    }
    // A pong while down is a stale answer from a connection we already
    // gave up on: recovery goes through reconnect_due, not here.
  });
}

ShardHealth::Event ShardHealth::probe_miss(std::int64_t now_micros) {
  return apply([&] {
    if (phase_ == Phase::kRecovering ||
        (phase_ == Phase::kServing && ++misses_ >= config_.fail_threshold))
      go_down(now_micros);
  });
}

ShardHealth::Event ShardHealth::disconnected(std::int64_t now_micros) {
  // Already down: the cooldown keeps its start.
  return apply([&] {
    if (phase_ != Phase::kDown) go_down(now_micros);
  });
}

bool ShardHealth::reconnect_due(std::int64_t now_micros) {
  if (phase_ != Phase::kDown ||
      static_cast<double>(now_micros - down_since_us_) <
          config_.down_cooldown_us)
    return false;
  phase_ = Phase::kRecovering;
  probes_admitted_ = 1;  // the reconnect attempt itself
  probes_answered_ = 0;
  return true;
}

ShardHealth::Event ShardHealth::reconnect_succeeded(std::int64_t now_micros) {
  // The completed TCP handshake is the first successful probe.
  return probe_ok(now_micros);
}

ShardHealth::Event ShardHealth::reconnect_failed(std::int64_t now_micros) {
  // Only a recovering shard has a reconnect attempt in flight.
  return apply([&] {
    if (phase_ == Phase::kRecovering) go_down(now_micros);
  });
}

bool ShardHealth::recovery_probe_due(std::int64_t /*now_micros*/) {
  if (phase_ != Phase::kRecovering ||
      probes_admitted_ >= config_.recover_probes)
    return false;
  ++probes_admitted_;
  return true;
}

}  // namespace tgp::net
