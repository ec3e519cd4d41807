#include "net/shard.hpp"

#include <algorithm>
#include <stdexcept>

namespace tgp::net {

std::uint64_t ring_mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

HashRing::HashRing(std::uint32_t shard_count) : shard_count_(shard_count) {
  if (shard_count == 0) throw std::invalid_argument("HashRing: 0 shards");
  points_.reserve(static_cast<std::size_t>(shard_count) * kVnodes);
  for (std::uint32_t s = 0; s < shard_count; ++s)
    for (std::uint32_t v = 0; v < kVnodes; ++v) {
      // Distinct well-mixed point per (shard, vnode); the odd multiplier
      // keeps shard/vnode pairs from colliding before the mix.
      const std::uint64_t seed =
          (static_cast<std::uint64_t>(s) << 32) | (v * 2654435761u);
      points_.emplace_back(ring_mix(seed), s);
    }
  std::sort(points_.begin(), points_.end());
}

std::uint32_t HashRing::owner(std::uint64_t key) const {
  const std::uint64_t h = ring_mix(key);
  auto it = std::upper_bound(
      points_.begin(), points_.end(), h,
      [](std::uint64_t lhs, const auto& p) { return lhs < p.first; });
  if (it == points_.end()) it = points_.begin();  // wrap around the circle
  return it->second;
}

}  // namespace tgp::net
