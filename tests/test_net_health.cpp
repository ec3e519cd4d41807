// Shard health state machine (up → suspect → down → recovering) and the
// HashRing failover properties the hand-off protocol leans on:
// successor-only re-ownership when a shard dies, the minimal-reshuffle
// bound, and exact round-trip of ownership when the shard comes back.
#include "net/health.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "net/shard.hpp"

namespace tgp::net {
namespace {

ShardHealthConfig fast_config() {
  ShardHealthConfig c;
  c.fail_threshold = 3;
  c.down_cooldown_us = 1000;
  c.recover_probes = 2;
  return c;
}

TEST(ShardHealth, StartsUp) {
  ShardHealth h(fast_config());
  EXPECT_EQ(h.state(), ShardState::kUp);
  EXPECT_TRUE(h.serving());
}

TEST(ShardHealth, RejectsNonPositiveThresholds) {
  // What `tgp_served --fail-threshold 0` / `--recover-probes 0` pass in:
  // a shard that goes down without a miss, or recovers without a probe,
  // is a configuration error, not a state.
  ShardHealthConfig c = fast_config();
  c.fail_threshold = 0;
  EXPECT_THROW(ShardHealth{c}, std::invalid_argument);
  c = fast_config();
  c.recover_probes = 0;
  EXPECT_THROW(ShardHealth{c}, std::invalid_argument);
  c = fast_config();
  c.fail_threshold = 1;
  c.recover_probes = 1;
  EXPECT_NO_THROW(ShardHealth{c});
}

TEST(ShardHealth, MissesWalkUpSuspectDown) {
  ShardHealth h(fast_config());
  std::int64_t t = 0;

  ShardHealth::Event ev = h.probe_miss(++t);
  EXPECT_EQ(ev.state, ShardState::kSuspect);
  EXPECT_TRUE(ev.changed);
  EXPECT_TRUE(h.serving()) << "suspect still serves traffic";

  ev = h.probe_miss(++t);
  EXPECT_EQ(ev.state, ShardState::kSuspect);
  EXPECT_FALSE(ev.changed);

  ev = h.probe_miss(++t);  // third consecutive miss = fail_threshold
  EXPECT_EQ(ev.state, ShardState::kDown);
  EXPECT_TRUE(ev.changed);
  EXPECT_FALSE(h.serving());
}

TEST(ShardHealth, OneAnswerClearsSuspect) {
  ShardHealth h(fast_config());
  std::int64_t t = 0;
  h.probe_miss(++t);
  h.probe_miss(++t);
  ShardHealth::Event ev = h.probe_ok(++t);
  EXPECT_EQ(ev.state, ShardState::kUp);
  EXPECT_TRUE(ev.changed);
  // The miss counter reset: three more misses are needed to go down.
  h.probe_miss(++t);
  h.probe_miss(++t);
  EXPECT_EQ(h.state(), ShardState::kSuspect);
}

TEST(ShardHealth, DisconnectTripsImmediately) {
  ShardHealth h(fast_config());
  ShardHealth::Event ev = h.disconnected(1);
  EXPECT_EQ(ev.state, ShardState::kDown);
  EXPECT_TRUE(ev.changed);
  EXPECT_FALSE(h.serving());
  // Idempotent while already down, and the cooldown keeps its start.
  ev = h.disconnected(2);
  EXPECT_FALSE(ev.changed);
  EXPECT_TRUE(h.reconnect_due(1 + 1000));
}

TEST(ShardHealth, ReconnectWaitsOutTheCooldown) {
  ShardHealth h(fast_config());
  h.disconnected(0);
  EXPECT_FALSE(h.reconnect_due(500)) << "cooldown is 1000us";
  EXPECT_TRUE(h.reconnect_due(1500));
  // The admitted reconnect put the shard in recovering; a second
  // reconnect attempt is not due while one is in flight.
  EXPECT_EQ(h.state(), ShardState::kRecovering);
  EXPECT_FALSE(h.reconnect_due(1600));
}

TEST(ShardHealth, RecoveryDrainsBackInAfterProbes) {
  ShardHealth h(fast_config());  // recover_probes = 2
  h.disconnected(0);
  ASSERT_TRUE(h.reconnect_due(2000));
  ShardHealth::Event ev = h.reconnect_succeeded(2100);
  // The completed handshake is recovery probe #1 of 2: still recovering.
  EXPECT_EQ(ev.state, ShardState::kRecovering);
  EXPECT_FALSE(h.serving()) << "recovering shards take probes, not jobs";

  ASSERT_TRUE(h.recovery_probe_due(2200));
  ev = h.probe_ok(2300);  // probe #2 answers
  EXPECT_EQ(ev.state, ShardState::kUp);
  EXPECT_TRUE(ev.changed);
  EXPECT_TRUE(h.serving());
}

TEST(ShardHealth, ReconnectFailureRestartsTheCooldown) {
  ShardHealth h(fast_config());
  h.disconnected(0);
  ASSERT_TRUE(h.reconnect_due(2000));
  ShardHealth::Event ev = h.reconnect_failed(2100);
  EXPECT_EQ(ev.state, ShardState::kDown);
  EXPECT_FALSE(h.reconnect_due(2500)) << "cooldown restarted at 2100";
  EXPECT_TRUE(h.reconnect_due(3200));
}

TEST(ShardHealth, MissDuringRecoveryReopens) {
  ShardHealth h(fast_config());
  h.disconnected(0);
  ASSERT_TRUE(h.reconnect_due(2000));
  h.reconnect_succeeded(2100);
  ASSERT_EQ(h.state(), ShardState::kRecovering);
  ShardHealth::Event ev = h.probe_miss(2200);
  EXPECT_EQ(ev.state, ShardState::kDown);
  EXPECT_TRUE(ev.changed);
}

// ---- The same transitions under the circuit-breaker names ----------------
//
// These five carry the names of the tests of the sliding-window circuit
// breaker (window = min_samples = fail_threshold, trip rate 1.0) that the
// shard machine replaces, and drive the same transitions through it.

TEST(CircuitBreaker, NoTripBeforeMinSamples) {
  ShardHealth h(fast_config());  // fail_threshold = 3
  // fail_threshold - 1 misses: suspect, still serving.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(h.probe_miss(i).state, ShardState::kSuspect) << i;
    EXPECT_TRUE(h.serving()) << i;
  }
  // The next miss reaches the threshold: down.
  ShardHealth::Event ev = h.probe_miss(2);
  EXPECT_TRUE(ev.changed);
  EXPECT_EQ(ev.state, ShardState::kDown);
  EXPECT_FALSE(h.serving());
}

TEST(CircuitBreaker, SuccessesSlideFaultsOutOfTheWindow) {
  ShardHealth h(fast_config());  // fail_threshold = 3
  // Long runs of misses, each one short of the threshold and broken up
  // by an answer, never take the shard down.
  std::int64_t t = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 2; ++i) {
      EXPECT_NE(h.probe_miss(++t).state, ShardState::kDown) << round;
      EXPECT_TRUE(h.serving()) << round;
    }
    ShardHealth::Event ev = h.probe_ok(++t);
    EXPECT_EQ(ev.state, ShardState::kUp) << round;
    EXPECT_TRUE(ev.changed) << round;
  }
  // An answer between two misses resets the count, so the threshold
  // needs three fresh misses in a row.
  h.probe_miss(++t);
  h.probe_ok(++t);
  h.probe_miss(++t);
  h.probe_miss(++t);
  EXPECT_EQ(h.state(), ShardState::kSuspect);
  EXPECT_EQ(h.probe_miss(++t).state, ShardState::kDown);
}

TEST(CircuitBreaker, OpenRejectsUntilCooldownThenProbes) {
  ShardHealthConfig c = fast_config();
  c.recover_probes = 3;
  ShardHealth h(c);
  for (int i = 0; i < 3; ++i) h.probe_miss(i);
  ASSERT_EQ(h.state(), ShardState::kDown);
  // Down since t = 2; the cooldown is 1000us.
  EXPECT_FALSE(h.reconnect_due(500));
  EXPECT_FALSE(h.reconnect_due(2 + 999));
  EXPECT_EQ(h.state(), ShardState::kDown);
  EXPECT_FALSE(h.recovery_probe_due(600)) << "no probes while down";
  EXPECT_FALSE(h.probe_ok(700).changed) << "a stale pong revives nothing";
  // At the end of the cooldown the reconnect is due and is the first of
  // recover_probes probes.
  EXPECT_TRUE(h.reconnect_due(2 + 1000));
  EXPECT_EQ(h.state(), ShardState::kRecovering);
  EXPECT_FALSE(h.reconnect_due(1100)) << "one attempt at a time";
  // recover_probes - 1 more probes are admitted, and no more.
  EXPECT_TRUE(h.recovery_probe_due(1100));
  EXPECT_TRUE(h.recovery_probe_due(1100));
  EXPECT_FALSE(h.recovery_probe_due(1100));
  EXPECT_FALSE(h.recovery_probe_due(5000));
  EXPECT_EQ(h.state(), ShardState::kRecovering);
}

TEST(CircuitBreaker, HalfOpenSuccessQuotaCloses) {
  ShardHealthConfig c = fast_config();
  c.recover_probes = 3;
  ShardHealth h(c);
  for (int i = 0; i < 2; ++i) h.probe_miss(i);
  h.disconnected(2);
  ASSERT_TRUE(h.reconnect_due(2000));
  // The handshake and the next answer are two of three: still recovering.
  ShardHealth::Event ev = h.reconnect_succeeded(2001);
  EXPECT_FALSE(ev.changed);
  EXPECT_EQ(ev.state, ShardState::kRecovering);
  ASSERT_TRUE(h.recovery_probe_due(2002));
  ev = h.probe_ok(2003);
  EXPECT_FALSE(ev.changed);
  EXPECT_FALSE(h.serving());
  // The third answer brings the shard up.
  ASSERT_TRUE(h.recovery_probe_due(2004));
  ev = h.probe_ok(2005);
  EXPECT_TRUE(ev.changed);
  EXPECT_EQ(ev.state, ShardState::kUp);
  EXPECT_TRUE(h.serving());
  // No misses carried over from before the outage: fail_threshold - 1
  // fresh misses keep it serving.
  h.probe_miss(3000);
  h.probe_miss(3001);
  EXPECT_EQ(h.state(), ShardState::kSuspect);
  EXPECT_FALSE(h.reconnect_due(9000)) << "serving shards never re-dial";
}

TEST(CircuitBreaker, HalfOpenFaultReopensAndRestartsCooldown) {
  ShardHealth h(fast_config());
  h.disconnected(0);
  ASSERT_TRUE(h.reconnect_due(2000));
  h.reconnect_succeeded(2000);
  ASSERT_EQ(h.state(), ShardState::kRecovering);
  ShardHealth::Event ev = h.probe_miss(2001);
  EXPECT_TRUE(ev.changed);
  EXPECT_EQ(ev.state, ShardState::kDown);
  // The cooldown restarts from the miss, not from the first outage.
  EXPECT_FALSE(h.reconnect_due(2500));
  EXPECT_FALSE(h.reconnect_due(2001 + 999));
  EXPECT_TRUE(h.reconnect_due(2001 + 1000));
  EXPECT_EQ(h.state(), ShardState::kRecovering);
}

// ---- HashRing failover properties -----------------------------------------

constexpr int kKeys = 20000;
constexpr std::uint32_t kShards = 5;

std::uint64_t key_of(int i) {
  return ring_mix(static_cast<std::uint64_t>(i) + 11);
}

TEST(HashRingFailover, AllAliveMatchesOwner) {
  HashRing ring(kShards);
  for (int i = 0; i < kKeys; ++i)
    EXPECT_EQ(ring.owner_if(key_of(i), [](std::uint32_t) { return true; }),
              ring.owner(key_of(i)));
}

TEST(HashRingFailover, OnlyTheDeadShardsKeysMove) {
  HashRing ring(kShards);
  const std::uint32_t dead = 2;
  auto alive = [&](std::uint32_t s) { return s != dead; };
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::uint64_t key = key_of(i);
    const std::uint32_t before = ring.owner(key);
    const std::uint32_t after = ring.owner_if(key, alive);
    ASSERT_NE(after, dead);
    if (before == dead) {
      ++moved;
    } else {
      // Keys the dead shard never owned do not move at all — that is
      // what makes fail-over cache-friendly for the survivors.
      EXPECT_EQ(after, before);
    }
  }
  // Minimal reshuffle: only the dead shard's ~1/N of the keyspace
  // moves, with generous slack for vnode imbalance.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kKeys * 2 / kShards);
}

TEST(HashRingFailover, DeadShardsKeysSpreadOverSurvivors) {
  HashRing ring(kShards);
  const std::uint32_t dead = 0;
  auto alive = [&](std::uint32_t s) { return s != dead; };
  std::map<std::uint32_t, int> inherited;
  for (int i = 0; i < kKeys; ++i) {
    const std::uint64_t key = key_of(i);
    if (ring.owner(key) == dead) ++inherited[ring.owner_if(key, alive)];
  }
  // With 64 vnodes the dead shard's arcs are interleaved with every
  // other shard's, so no single survivor inherits the whole load.
  EXPECT_GE(inherited.size(), 2u);
}

TEST(HashRingFailover, RemoveThenReviveRoundTripsOwnership) {
  HashRing ring(kShards);
  const std::uint32_t dead = 3;
  auto all = [](std::uint32_t) { return true; };
  auto without = [&](std::uint32_t s) { return s != dead; };
  for (int i = 0; i < kKeys; ++i) {
    const std::uint64_t key = key_of(i);
    const std::uint32_t original = ring.owner_if(key, all);
    (void)ring.owner_if(key, without);  // shard dies...
    // ...and comes back: every key returns to its original owner.
    EXPECT_EQ(ring.owner_if(key, all), original);
  }
}

TEST(HashRingFailover, CascadingDeathsStillRoute) {
  HashRing ring(kShards);
  // Kill all but shard 4: everything routes there.
  auto only4 = [](std::uint32_t s) { return s == 4; };
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(ring.owner_if(key_of(i), only4), 4u);
}

TEST(HashRingFailover, NothingAliveReturnsShardCount) {
  HashRing ring(kShards);
  auto none = [](std::uint32_t) { return false; };
  EXPECT_EQ(ring.owner_if(key_of(0), none), kShards);
}

}  // namespace
}  // namespace tgp::net
