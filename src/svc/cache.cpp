#include "svc/cache.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "dur/crc32c.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace tgp::svc {
namespace {

std::uint32_t as_index(int edge) { return static_cast<std::uint32_t>(edge); }

/// `high` (an index's high part, as the unpack's first pass left it) with
/// the L-bit field `low` under it.
int join(int high, std::uint64_t low, unsigned L) {
  return static_cast<int>(static_cast<std::uint32_t>(
      (std::uint64_t{as_index(high)} << L) | low));
}

/// ORs the first `n` low fields, packed from bit 0 of `w`, under the high
/// parts in `cut`.  L divides 64, so no field straddles two words and a
/// word's fields come out with constant shifts.
template <unsigned L>
void join_lows(const std::uint64_t* w, int* cut, std::uint64_t n) {
  static_assert(64 % L == 0, "a field must not straddle two words");
  constexpr unsigned kPerWord = 64 / L;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << L) - 1;
  std::uint64_t j = 0;
  for (; j + kPerWord <= n; j += kPerWord, ++w)
    for (unsigned f = 0; f < kPerWord; ++f)
      cut[j + f] = join(cut[j + f], (*w >> (f * L)) & kMask, L);
  for (unsigned f = 0; j < n; ++j, ++f)
    cut[j] = join(cut[j], (*w >> (f * L)) & kMask, L);
}

/// Decodes a packed cut of `cut_size` edges with `low_bits`-bit low
/// fields into `cut`, reusing its capacity.  Reads only within `words`,
/// whatever their bits or the sizes hold, so a corrupt entry unpacks
/// safely for the quarantine hook.
void unpack_cut(std::span<const std::uint64_t> words, std::uint32_t cut_size,
                std::uint8_t low_bits, std::vector<int>& cut) {
  const std::uint64_t* w = words.data();
  const std::uint64_t n_words = words.size();
  // Every index takes L low bits and one high bit; bounding the count by
  // that keeps a corrupt count or width from reading past the words.
  const unsigned L = std::min<unsigned>(low_bits, 32);
  const std::uint64_t n =
      std::min<std::uint64_t>(cut_size, n_words * 64 / (L + 1));
  // resize() keeps the cut's capacity — no heap traffic once the caller's
  // scratch outcome has grown to the largest cut it has seen.
  cut.resize(n);
  // High parts first: index i's is the position of the i-th set bit past
  // the low fields, less i.  A corrupt entry may hold fewer set bits than
  // its count; its cut then ends early.
  const std::uint64_t high_start = n * L;
  std::uint64_t word = high_start >> 6;
  std::uint64_t bits =
      n == 0 ? 0 : w[word] & (~std::uint64_t{0} << (high_start & 63));
  std::uint64_t i = 0;
  while (i < n) {
    if (bits == 0) {
      if (++word == n_words) break;
      bits = w[word];
      continue;
    }
    // Unsigned: wraps below zero in the first word; base + position
    // does not.
    const std::uint64_t base = word * 64 - high_start;
    do {
      cut[i] = static_cast<int>(static_cast<std::uint32_t>(
          base + static_cast<unsigned>(std::countr_zero(bits)) - i));
      bits &= bits - 1;
      ++i;
    } while (bits != 0 && i < n);
  }
  cut.resize(i);
  // Then the low fields under them.  A cut keeping more than an eighth of
  // its edges has L of 1 or 2, and takes them a word at a time; a sparser
  // one, one field at a time.
  switch (L) {
    case 0:
      return;
    case 1:
      return join_lows<1>(w, cut.data(), i);
    case 2:
      return join_lows<2>(w, cut.data(), i);
    default:
      break;
  }
  const std::uint64_t mask = (std::uint64_t{1} << L) - 1;
  for (std::uint64_t j = 0; j < i; ++j) {
    const std::uint64_t at = j * L;
    const unsigned shift = static_cast<unsigned>(at & 63);
    std::uint64_t low = w[at >> 6] >> shift;
    if (shift + L > 64) low |= w[(at >> 6) + 1] << (64 - shift);
    cut[j] = join(cut[j], low & mask, L);
  }
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

MemoCache::Entry MemoCache::pack(const CacheKey& key,
                                 const CanonicalOutcome& outcome) {
  Entry e;
  e.key = key;
  e.objective = outcome.objective;
  e.components = outcome.components;
  e.counters = outcome.counters;
  std::span<const int> cut = outcome.cut.edges;
  const auto ascending = [](int a, int b) {
    return as_index(a) < as_index(b);
  };
  std::vector<int> sorted;
  if (!std::is_sorted(cut.begin(), cut.end(), ascending)) {
    sorted.assign(cut.begin(), cut.end());
    std::sort(sorted.begin(), sorted.end(), ascending);
    cut = sorted;
  }
  const std::uint64_t n = cut.size();
  e.cut_size = static_cast<std::uint32_t>(n);
  if (n > 0) {
    // L = ⌊log2(u / n)⌋ for u one past the largest index: 0 when u ≤ n,
    // at most 32.  The high parts then take n ones and fewer than 2n zeros.
    const std::uint64_t last = as_index(cut.back());
    const std::uint64_t u = last + 1;
    const unsigned L =
        u <= n ? 0u : static_cast<unsigned>(std::bit_width(u / n)) - 1;
    const std::uint64_t high_start = n * L;
    e.cut_low_bits = static_cast<std::uint8_t>(L);
    e.cut_words.assign((high_start + n + (last >> L) + 63) / 64, 0);
    std::uint64_t* w = e.cut_words.data();
    const std::uint64_t mask = (std::uint64_t{1} << L) - 1;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t v = as_index(cut[i]);
      const std::uint64_t at = i * L;
      const unsigned shift = static_cast<unsigned>(at & 63);
      w[at >> 6] |= (v & mask) << shift;
      if (shift + L > 64) w[(at >> 6) + 1] |= (v & mask) >> (64 - shift);
      const std::uint64_t high = high_start + (v >> L) + i;
      w[high >> 6] |= std::uint64_t{1} << (high & 63);
    }
  }
  e.bytes = sizeof(Entry) + e.cut_words.capacity() * sizeof(std::uint64_t);
  e.crc = entry_crc(e);
  return e;
}

void MemoCache::unpack(const Entry& e, CanonicalOutcome& out) {
  out.objective = e.objective;
  out.components = e.components;
  // A hit hands back the original solve's counters — keeps per-job
  // counters independent of cache state (CanonicalOutcome::counters).
  out.counters = e.counters;
  unpack_cut(e.cut_words, e.cut_size, e.cut_low_bits, out.cut.edges);
}

std::uint32_t MemoCache::entry_crc(const Entry& e) {
  // Computed field-by-field so no serialization buffer is allocated on
  // the put path.  A hit on the wrong key is as bad as a corrupt value.
  dur::Crc32c crc;
  crc.update_value(e.key.graph.hi);
  crc.update_value(e.key.graph.lo);
  crc.update_value(static_cast<std::uint32_t>(e.key.problem));
  crc.update_value(e.key.k_bits);
  crc.update_value(std::bit_cast<std::uint64_t>(e.objective));
  crc.update_value(static_cast<std::int32_t>(e.components));
  crc.update_value(e.cut_size);
  crc.update_value(e.cut_low_bits);
  if (!e.cut_words.empty())
    crc.update(e.cut_words.data(),
               e.cut_words.size() * sizeof(std::uint64_t));
  crc.update_value(e.counters);
  return crc.value();
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
  // A hit copies the scalars and the packed words out under the lock and
  // decodes the cut after releasing it, so other probers of the shard
  // wait for the CRC and a copy of a few bits an edge, not the decode.
  // A corrupt entry is moved out and quarantined after the lock is
  // released too — the hook does file I/O.
  util::ScratchFrame frame(nullptr);
  std::span<const std::uint64_t> words;
  std::uint32_t cut_size = 0;
  std::uint8_t low_bits = 0;
  std::optional<Entry> corrupt;
  {
    std::lock_guard lk(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) {
      ++s.misses;
      return false;
    }
    Entry& e = *it->second;
    if (entry_crc(e) == e.crc) {
      ++s.hits;
      if (e.recovered) ++s.warm_hits;
      if (info) {
        info->recovered = e.recovered;
        info->needs_verify = e.needs_verify;
      }
      s.lru.splice(s.lru.begin(), s.lru, it->second);  // move to MRU
      out.objective = e.objective;
      out.components = e.components;
      out.counters = e.counters;
      std::uint64_t* copy =
          frame->alloc_array<std::uint64_t>(e.cut_words.size());
      std::copy(e.cut_words.begin(), e.cut_words.end(), copy);
      words = {copy, e.cut_words.size()};
      cut_size = e.cut_size;
      low_bits = e.cut_low_bits;
    } else {
      // The bytes rotted while cached.  Serving them would hand out a
      // partition nobody computed; drop the entry and recompute.
      ++s.misses;
      ++s.corrupt;
      s.bytes -= e.bytes;
      if (quarantine_) corrupt.emplace(std::move(e));
      s.lru.erase(it->second);
      s.index.erase(it);
      if (!corrupt) return false;
    }
  }
  if (!corrupt) {
    unpack_cut(words, cut_size, low_bits, out.cut.edges);
    return true;
  }
  CanonicalOutcome copy;
  unpack(*corrupt, copy);
  quarantine_(key, copy);
  return false;
}

void MemoCache::put_impl(Shard& s, Entry&& e) {
  std::lock_guard lk(s.mu);
  auto it = s.index.find(e.key);
  if (it != s.index.end()) {
    // Deterministic solvers make refreshes value-identical; just bump LRU.
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  while (s.bytes + e.bytes > shard_budget_ && !s.lru.empty()) {
    s.bytes -= s.lru.back().bytes;
    s.index.erase(s.lru.back().key);
    s.lru.pop_back();
    ++s.evictions;
  }
  s.bytes += e.bytes;
  ++s.insertions;
  if (e.recovered) ++s.recovered_entries;
  s.lru.push_front(std::move(e));
  s.index.emplace(s.lru.front().key, s.lru.begin());
}

void MemoCache::put(const CacheKey& key, const CanonicalOutcome& outcome) {
  Entry e = pack(key, outcome);
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(key))];
  if (e.bytes > entry_cap()) {
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
  put_impl(s, std::move(e));
}

bool MemoCache::load_recovered(const CacheKey& key,
                               const CanonicalOutcome& outcome) {
  Entry e = pack(key, outcome);
  e.recovered = true;
  e.needs_verify = true;
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(key))];
  if (e.bytes > entry_cap()) {
    std::lock_guard lk(s.mu);
    ++s.put_rejected;
    return false;
  }
  put_impl(s, std::move(e));
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
  std::optional<Entry> erased;
  {
    std::lock_guard lk(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) return false;
    s.bytes -= it->second->bytes;
    if (quarantine_) erased.emplace(std::move(*it->second));
    s.lru.erase(it->second);
    s.index.erase(it);
  }
  if (erased) {
    CanonicalOutcome copy;
    unpack(*erased, copy);
    quarantine_(key, copy);
  }
  return true;
}

void MemoCache::for_each(
    const std::function<void(const CacheKey&, const CanonicalOutcome&)>& fn)
    const {
  CanonicalOutcome outcome;
  for (const auto& sp : shards_) {
    std::lock_guard lk(sp->mu);
    for (const Entry& e : sp->lru) {
      unpack(e, outcome);
      fn(e.key, outcome);
    }
  }
}

bool MemoCache::corrupt_for_test(const CacheKey& key, std::uint64_t bit) {
  Shard& s = *shards_[static_cast<std::size_t>(shard_of(key))];
  std::lock_guard lk(s.mu);
  auto it = s.index.find(key);
  if (it == s.index.end()) return false;
  Entry& e = *it->second;
  // Bit flip; the CRC word is left stale on purpose.
  if (!e.cut_words.empty()) {
    bit %= e.cut_words.size() * 64;
    e.cut_words[bit / 64] ^= std::uint64_t{1} << (bit % 64);
  } else {
    e.objective = std::bit_cast<graph::Weight>(
        std::bit_cast<std::uint64_t>(e.objective) ^
        (std::uint64_t{1} << (bit % 64)));
  }
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
