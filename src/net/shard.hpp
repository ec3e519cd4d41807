// Consistent-hash ring over the canonical graph fingerprint.
//
// The shard router (net/router.hpp) must send every job for the same
// canonical graph to the same backend, so each backend's memo cache owns
// a disjoint slice of fingerprint space and no entry is ever warmed
// twice across the fleet.  A plain `fold() % N` would satisfy that for a
// fixed fleet but reshuffles almost every key when N changes; the ring
// moves only ~1/N of the keyspace per added or removed shard.
//
// Construction hashes kVnodes virtual points per shard onto a u64
// circle; lookup is a binary search for the first point at or after the
// key's hash.  Both sides of the mapping are pure functions of
// (shard count, key), so a backend can independently recompute its
// ownership — that is how the per-shard "foreign" Prometheus
// counters in net/backend.hpp verify routing disjointness end to end.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/fingerprint.hpp"

namespace tgp::net {

/// The ring's point hash (splitmix64 finalizer): cheap, well mixed, and
/// stable across builds — routing must not depend on libstdc++'s
/// std::hash, which is unspecified.
std::uint64_t ring_mix(std::uint64_t x);

class HashRing {
 public:
  /// Virtual points per shard.  A constant, not a knob: the router and
  /// every backend must build the same ring, or the backends' ownership
  /// accounting stops matching the router's routing.
  static constexpr std::uint32_t kVnodes = 64;

  /// A ring over shards 0..shard_count-1.  shard_count must be >= 1.
  explicit HashRing(std::uint32_t shard_count);

  std::uint32_t shard_count() const { return shard_count_; }

  /// Owning shard for a raw 64-bit key.
  std::uint32_t owner(std::uint64_t key) const;

  /// Owning shard for a canonical fingerprint (routes on fold()).
  std::uint32_t owner(const graph::Fingerprint& fp) const {
    return owner(fp.fold());
  }

  /// Failover routing: the first shard, walking clockwise from the
  /// key's position, for which `alive(shard)` is true.  With every
  /// shard alive this is exactly owner(); with the owner down, it is
  /// the ring successor — and because only keys owned by dead shards
  /// move, a key's ownership returns to the original shard the moment
  /// it is alive again (minimal reshuffle, the failover analogue of the
  /// add/remove property).  Returns shard_count() when nothing is alive.
  template <class Pred>
  std::uint32_t owner_if(std::uint64_t key, Pred&& alive) const {
    const std::uint64_t h = ring_mix(key);
    auto it = std::upper_bound(
        points_.begin(), points_.end(), h,
        [](std::uint64_t lhs, const auto& p) { return lhs < p.first; });
    for (std::size_t step = 0; step < points_.size(); ++step, ++it) {
      if (it == points_.end()) it = points_.begin();
      if (alive(it->second)) return it->second;
    }
    return shard_count_;
  }

 private:
  std::uint32_t shard_count_;
  // (point on the circle, shard) sorted by point.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
};

}  // namespace tgp::net
