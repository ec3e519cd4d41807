// Per-shard health state machine for the fleet router.
//
// Each backend shard is tracked through four states:
//
//          probe misses                 fail_threshold-th miss,
//        ┌─────────────┐               or a hard disconnect
//   up ──┤   suspect   ├── down ──────────────┐
//    ▲   └─────────────┘    │   cooldown      │
//    │                      ▼                 │
//    └─── recover_probes ── recovering ◄──────┘
//         pongs on the          reconnect succeeded
//         new connection
//
// The machine stores a phase — serving, down or recovering — and, while
// serving, the count of consecutive probe misses: up is serving with no
// miss, suspect is serving with at least one.  fail_threshold
// consecutive misses take the shard down (one answer resets the count),
// and a hard disconnect takes it down at once.  Down starts a cooldown
// that paces reconnect attempts; the attempt itself is the first of
// recover_probes recovery probes, and the shard serves again once that
// many have answered.  Any miss or failure while recovering takes it
// back down and restarts the cooldown.
//
// A suspect shard keeps serving (its connection is alive; it may just
// be slow); only down and recovering shards are excluded from routing.
//
// Loop-thread only, like everything else in the router, so it takes no
// lock; all time is caller-supplied microseconds, so the machine is fully
// deterministic under test.
#pragma once

#include <cstdint>

namespace tgp::net {

enum class ShardState { kUp = 0, kSuspect = 1, kDown = 2, kRecovering = 3 };

/// "up" | "suspect" | "down" | "recovering".
const char* shard_state_name(ShardState s);

struct ShardHealthConfig {
  /// Consecutive probe misses that take a shard from suspect to down.
  int fail_threshold = 3;
  /// Down → eligible for a reconnect attempt after this long.
  double down_cooldown_us = 250'000;
  /// Successful probes (the reconnect handshake counts as the first)
  /// before a recovering shard is up again.
  int recover_probes = 2;
};

class ShardHealth {
 public:
  /// State after an event, plus whether the event changed it (callers
  /// emit a shard.transition trace event and bump counters on change).
  struct Event {
    ShardState state = ShardState::kUp;
    bool changed = false;
  };

  /// Throws std::invalid_argument unless fail_threshold >= 1 and
  /// recover_probes >= 1.
  explicit ShardHealth(const ShardHealthConfig& config);

  ShardState state() const;

  /// May this shard take new traffic?  up and suspect only.
  bool serving() const { return phase_ == Phase::kServing; }

  /// A probe (ping) was answered, or a recovery probe succeeded.
  Event probe_ok(std::int64_t now_micros);

  /// A probe went unanswered past its deadline, or failed to send.
  Event probe_miss(std::int64_t now_micros);

  /// The shard's connection dropped: immediately down.
  Event disconnected(std::int64_t now_micros);

  /// Down + cooldown elapsed: the caller should attempt one reconnect
  /// now.  Consumes the attempt — a `true` return moves the machine to
  /// recovering, and the caller must follow up with
  /// reconnect_succeeded() or reconnect_failed().
  bool reconnect_due(std::int64_t now_micros);

  /// The TCP handshake to the restarted shard completed — the handshake
  /// counts as the first successful recovery probe.
  Event reconnect_succeeded(std::int64_t now_micros);

  /// The reconnect attempt failed: back to down, cooldown restarted.
  Event reconnect_failed(std::int64_t now_micros);

  /// Recovering: is another recovery probe admitted right now?  At most
  /// recover_probes are admitted per recovery, the reconnect included.
  bool recovery_probe_due(std::int64_t now_micros);

 private:
  enum class Phase { kServing, kDown, kRecovering };

  template <class Fn>
  Event apply(Fn&& fn);
  void go_down(std::int64_t now_micros);

  ShardHealthConfig config_;
  Phase phase_ = Phase::kServing;
  int misses_ = 0;                  ///< consecutive misses while serving
  std::int64_t down_since_us_ = 0;  ///< cooldown start
  int probes_admitted_ = 0;         ///< this recovery's, reconnect included
  int probes_answered_ = 0;         ///< this recovery's, reconnect included
};

}  // namespace tgp::net
