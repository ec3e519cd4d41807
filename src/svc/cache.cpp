#include "svc/cache.hpp"

#include <bit>
#include <utility>

#include "dur/crc32c.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace tgp::svc {
namespace {

/// Integrity word over everything a hit serves: the key (a hit on the
/// wrong key is as bad as a corrupt value) and the outcome's content.
/// Computed field-by-field so no serialization buffer is allocated on
/// the put path.
std::uint32_t entry_crc(const CacheKey& key, const CanonicalOutcome& o) {
  dur::Crc32c crc;
  crc.update_value(key.graph.hi);
  crc.update_value(key.graph.lo);
  crc.update_value(static_cast<std::uint32_t>(key.problem));
  crc.update_value(key.k_bits);
  crc.update_value(std::bit_cast<std::uint64_t>(o.objective));
  crc.update_value(static_cast<std::int32_t>(o.components));
  if (!o.cut.edges.empty())
    crc.update(o.cut.edges.data(), o.cut.edges.size() * sizeof(int));
  crc.update_value(o.counters);
  return crc.value();
}

}  // namespace

CacheKey CacheKey::make(const graph::Fingerprint& fp, Problem p,
                        graph::Weight K) {
  CacheKey k;
  k.graph = fp;
  k.problem = p;
  k.k_bits = std::bit_cast<std::uint64_t>(K);
  return k;
}

std::size_t CacheKeyHash::operator()(const CacheKey& k) const noexcept {
  std::uint64_t h = k.graph.fold();
  h ^= (k.k_bits + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= static_cast<std::uint64_t>(k.problem) * 0x94D049BB133111EBull;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

MemoCache::MemoCache(std::size_t capacity_bytes, int shards,
                     std::size_t max_entry_bytes)
    : max_entry_bytes_(max_entry_bytes) {
  TGP_REQUIRE(shards >= 1 && (shards & (shards - 1)) == 0,
              "shard count must be a power of two");
  shard_budget_ = capacity_bytes / static_cast<std::size_t>(shards);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::size_t MemoCache::entry_cap() const {
  // An entry can never exceed one shard (it would evict everything and
  // still not fit); a configured cap can only tighten that.
  if (max_entry_bytes_ == 0) return shard_budget_;
  return std::min(max_entry_bytes_, shard_budget_);
}

int MemoCache::shard_of(const CacheKey& key) const {
  // The fingerprint's fold is already well mixed; mask selects the shard.
  return static_cast<int>(key.graph.fold() &
                          static_cast<std::uint64_t>(shards_.size() - 1));
}

std::optional<CanonicalOutcome> MemoCache::get(const CacheKey& key) {
  CanonicalOutcome out;
  if (!get_into(key, out)) return std::nullopt;
  return out;
}

bool MemoCache::get_into(const CacheKey& key, CanonicalOutcome& out,
                         CacheHitInfo* info) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(key))];
  // An injected lookup fault is a miss: the job recomputes and stays
  // correct, only slower.
  if (util::faults().fire("svc.cache.get")) {
    std::lock_guard lk(s.mu);
    ++s.misses;
    ++s.lookup_faults;
    return false;
  }
  // A corrupt entry is copied out and quarantined *after* the lock is
  // released — the hook does file I/O.
  CanonicalOutcome corrupt_copy;
  bool found_corrupt = false;
  {
    std::lock_guard lk(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) {
      ++s.misses;
      return false;
    }
    Entry& e = *it->second;
    if (entry_crc(e.key, e.outcome) != e.crc) {
      // The bytes rotted while cached.  Serving them would hand out a
      // partition nobody computed; drop the entry and recompute.
      ++s.misses;
      ++s.corrupt;
      if (quarantine_) {
        corrupt_copy = e.outcome;
        found_corrupt = true;
      }
      s.bytes -= e.bytes;
      s.lru.erase(it->second);
      s.index.erase(it);
    } else {
      ++s.hits;
      if (e.recovered) ++s.warm_hits;
      if (info) {
        info->recovered = e.recovered;
        info->needs_verify = e.needs_verify;
      }
      s.lru.splice(s.lru.begin(), s.lru, it->second);  // move to MRU
      const CanonicalOutcome& o = e.outcome;
      // assign() reuses out's existing capacity — no heap traffic once
      // the caller's scratch outcome has grown to the largest cut it
      // has seen.
      out.cut.edges.assign(o.cut.edges.begin(), o.cut.edges.end());
      out.objective = o.objective;
      out.components = o.components;
      // A hit hands back the original solve's counters — keeps per-job
      // counters independent of cache state (CanonicalOutcome::counters).
      out.counters = o.counters;
      return true;
    }
  }
  if (found_corrupt) quarantine_(key, corrupt_copy);
  return false;
}

void MemoCache::put_impl(Shard& s, const CacheKey& key,
                         CanonicalOutcome&& outcome, std::size_t cost,
                         bool recovered, bool needs_verify) {
  const std::uint32_t crc = entry_crc(key, outcome);
  std::lock_guard lk(s.mu);
  auto it = s.index.find(key);
  if (it != s.index.end()) {
    // Deterministic solvers make refreshes value-identical; just bump LRU.
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  while (s.bytes + cost > shard_budget_ && !s.lru.empty()) {
    s.bytes -= s.lru.back().bytes;
    s.index.erase(s.lru.back().key);
    s.lru.pop_back();
    ++s.evictions;
  }
  s.lru.push_front(Entry{key, std::move(outcome), cost, crc, recovered,
                         needs_verify});
  s.index.emplace(key, s.lru.begin());
  s.bytes += cost;
  ++s.insertions;
  if (recovered) ++s.recovered_entries;
}

void MemoCache::put(const CacheKey& key, CanonicalOutcome outcome) {
  std::size_t cost = sizeof(Entry) + outcome.memory_bytes();
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(key))];
  if (cost > entry_cap()) {
    std::lock_guard lk(s.mu);
    ++s.put_rejected;
    return;
  }
  // Injected store fault drops the insert — the cache is a pure
  // memoization layer, so losing an entry never changes any result.
  if (util::faults().fire("svc.cache.put")) {
    std::lock_guard lk(s.mu);
    ++s.store_faults;
    return;
  }
  put_impl(s, key, std::move(outcome), cost, /*recovered=*/false,
           /*needs_verify=*/false);
}

bool MemoCache::load_recovered(const CacheKey& key, CanonicalOutcome outcome) {
  std::size_t cost = sizeof(Entry) + outcome.memory_bytes();
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(key))];
  if (cost > entry_cap()) {
    std::lock_guard lk(s.mu);
    ++s.put_rejected;
    return false;
  }
  put_impl(s, key, std::move(outcome), cost, /*recovered=*/true,
           /*needs_verify=*/true);
  return true;
}

void MemoCache::mark_verified(const CacheKey& key) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(key))];
  std::lock_guard lk(s.mu);
  auto it = s.index.find(key);
  if (it != s.index.end()) it->second->needs_verify = false;
}

bool MemoCache::quarantine_erase(const CacheKey& key) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(key))];
  CanonicalOutcome copy;
  bool found = false;
  {
    std::lock_guard lk(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) return false;
    if (quarantine_) {
      copy = it->second->outcome;
      found = true;
    }
    s.bytes -= it->second->bytes;
    s.lru.erase(it->second);
    s.index.erase(it);
  }
  if (found) quarantine_(key, copy);
  return true;
}

void MemoCache::for_each(
    const std::function<void(const CacheKey&, const CanonicalOutcome&)>& fn)
    const {
  for (const auto& sp : shards_) {
    std::lock_guard lk(sp->mu);
    for (const Entry& e : sp->lru) fn(e.key, e.outcome);
  }
}

bool MemoCache::corrupt_for_test(const CacheKey& key) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(key))];
  std::lock_guard lk(s.mu);
  auto it = s.index.find(key);
  if (it == s.index.end()) return false;
  CanonicalOutcome& o = it->second->outcome;
  if (!o.cut.edges.empty())
    o.cut.edges[0] ^= 1;  // bit flip; CRC word left stale on purpose
  else
    o.objective = std::bit_cast<graph::Weight>(
        std::bit_cast<std::uint64_t>(o.objective) ^ 1ull);
  return true;
}

CacheStats MemoCache::stats() const {
  CacheStats out;
  out.shards = static_cast<int>(shards_.size());
  out.capacity_bytes = shard_budget_ * shards_.size();
  for (const auto& sp : shards_) {
    std::lock_guard lk(sp->mu);
    out.hits += sp->hits;
    out.misses += sp->misses;
    out.insertions += sp->insertions;
    out.evictions += sp->evictions;
    out.lookup_faults += sp->lookup_faults;
    out.store_faults += sp->store_faults;
    out.put_rejected += sp->put_rejected;
    out.corrupt += sp->corrupt;
    out.recovered_entries += sp->recovered_entries;
    out.warm_hits += sp->warm_hits;
    out.entries += sp->index.size();
    out.bytes += sp->bytes;
  }
  return out;
}

std::size_t MemoCache::shard_entries(int shard) const {
  TGP_REQUIRE(0 <= shard && shard < static_cast<int>(shards_.size()),
              "shard index out of range");
  const Shard& s = *shards_[static_cast<std::size_t>(shard)];
  std::lock_guard lk(s.mu);
  return s.index.size();
}

}  // namespace tgp::svc
