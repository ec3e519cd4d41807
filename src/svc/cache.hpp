// Sharded LRU memo cache for partition results.
//
// Keyed by (canonical graph fingerprint, problem, K): two submissions of
// the same task graph — even reversed chains or child-permuted trees —
// share one entry, because the service solves in canonical coordinates
// (svc/job.hpp) and stores the canonical outcome.  The byte budget is
// split evenly across shards, each an independent mutex + LRU list, so
// workers hitting different fingerprints never contend on one lock.
//
// A lookup that matches the key is trusted without comparing the full
// graph: the 128-bit fingerprint makes a false hit astronomically
// unlikely, and the canonical-coordinates design means even a *true* hit
// from an equivalent-but-differently-presented graph maps back to a
// correct, deterministic cut for the submitted presentation.
//
// An entry is stored packed.  The objective, component count and
// counters are kept as they are; the cut is an Elias–Fano code (Elias
// 1974; Vigna, "Quasi-succinct indices", 2013) of its e edge indices read
// as std::uint32_t in ascending order.  With u one past the largest index
// and L = ⌊log2(u/e)⌋ (0 when u ≤ e), the e low fields of L bits come
// first, packed from bit 0 of one std::vector<std::uint64_t>; the i-th
// index's high part v >> L is then the set bit at (v >> L) + i past them.
// That is at most 2 + ⌈log2(u/e)⌉ bits per edge at any density: about 3
// for a bottleneck cut keeping half a tree's edges, where a raw index
// costs 32.  put() and load_recovered() pack (a cut that does not ascend
// is sorted first, so it is served back ascending); a hit, for_each()
// and the quarantine hook unpack into a CanonicalOutcome.  A hit holds
// the shard lock only to check the CRC and copy the packed words out,
// and decodes them after releasing it.  Each entry's CRC32C covers the
// key, the scalars and the packed words, and an entry's cost against the
// byte budget is sizeof(Entry) plus the words it owns.  Only this file
// and cache.cpp know the format: the durable record (svc/persist.hpp)
// keeps the raw cut.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/fingerprint.hpp"
#include "svc/job.hpp"

namespace tgp::svc {

/// Cache key: canonical fingerprint + problem + exact K bit pattern.
struct CacheKey {
  graph::Fingerprint graph;
  Problem problem = Problem::kBottleneck;
  std::uint64_t k_bits = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;

  static CacheKey make(const graph::Fingerprint& fp, Problem p,
                       graph::Weight K);
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept;
};

/// Aggregated counters across shards.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Faulted operations (each faulted lookup also counts as a miss, so
  /// hit_rate() is unchanged by the split).
  std::uint64_t lookup_faults = 0;
  std::uint64_t store_faults = 0;
  /// Puts refused because the entry exceeded the per-entry byte cap.
  std::uint64_t put_rejected = 0;
  /// Entries whose integrity word failed on read (served as a miss and
  /// handed to the quarantine hook).
  std::uint64_t corrupt = 0;
  /// Entries loaded from durable storage at boot.
  std::uint64_t recovered_entries = 0;
  /// Hits served by a recovered entry (the warm-start payoff metric).
  std::uint64_t warm_hits = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t capacity_bytes = 0;
  int shards = 0;

  double hit_rate() const {
    std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Per-hit provenance for callers that treat recovered entries
/// differently (the service verifies them before first use).
struct CacheHitInfo {
  bool recovered = false;
  bool needs_verify = false;
};

class MemoCache {
 public:
  /// Called (outside any shard lock) with the bytes-corrupt entry,
  /// unpacked, when an integrity check fails on read, so the bad payload
  /// can be quarantined for postmortem before the entry is dropped.
  using QuarantineFn =
      std::function<void(const CacheKey&, const CanonicalOutcome&)>;

  /// `capacity_bytes` is the total budget across all shards; `shards`
  /// must be a power of two.  A zero budget disables storage (every get
  /// misses, puts are dropped) but still counts lookups.
  /// `max_entry_bytes` caps a single entry's cost; 0 means "one whole
  /// shard", the old implicit limit — but rejects are now counted
  /// either way instead of silently skipped.
  explicit MemoCache(std::size_t capacity_bytes, int shards = 16,
                     std::size_t max_entry_bytes = 0);

  /// Look up; moves the entry to the shard's MRU position on hit.
  std::optional<CanonicalOutcome> get(const CacheKey& key);

  /// Allocation-friendly lookup: on hit, unpacks the entry into `out`
  /// reusing out's cut-vector capacity (workers keep one scratch outcome
  /// per thread, so steady-state hits never touch the heap); the packed
  /// words are copied to the thread's scratch arena under the shard lock
  /// and decoded after it is released.  Returns whether the key was
  /// found; `out` is untouched on a miss.  An injected lookup fault
  /// (site "svc.cache.get") reads as a miss and is counted in
  /// lookup_faults.  Every hit re-checks the entry's CRC32C integrity
  /// word; a mismatch quarantines and erases the entry and reads as a
  /// miss.  `info` (optional) reports hit provenance.
  bool get_into(const CacheKey& key, CanonicalOutcome& out,
                CacheHitInfo* info = nullptr);

  /// Insert (or refresh) an entry, evicting LRU entries of the same shard
  /// until the shard fits its budget.  Packs the outcome, so the caller
  /// keeps it.  Entries larger than a whole shard are not cached.  An
  /// injected store fault (site "svc.cache.put") drops the insert and is
  /// counted in store_faults.
  void put(const CacheKey& key, const CanonicalOutcome& outcome);

  /// Boot-time insert of an entry recovered from durable storage.  The
  /// entry is flagged recovered (hits on it count as warm hits forever)
  /// and needs_verify (the service independently verifies the cut on
  /// first use, because a CRC only proves the bytes survived, not that
  /// they encode a valid partition).  Bypasses fault injection — the
  /// loader already filtered corrupt records.  Returns false when the
  /// entry exceeded the per-entry cap (counted as put_rejected).
  bool load_recovered(const CacheKey& key, const CanonicalOutcome& outcome);

  /// Clears the needs_verify flag after a successful independent check.
  void mark_verified(const CacheKey& key);

  /// Drops an entry whose *decoded* content failed verification (CRC
  /// fine, semantics wrong — e.g. a stale record from a buggy writer).
  /// Returns whether the key was present.
  bool quarantine_erase(const CacheKey& key);

  /// Installs the corrupt-entry hook (invoked outside shard locks).
  void set_quarantine(QuarantineFn fn) { quarantine_ = std::move(fn); }

  /// Visits every entry, unpacked, under its shard lock:
  /// `fn(key, outcome)`.  Used by snapshot compaction; `fn` must not
  /// reenter the cache.
  void for_each(
      const std::function<void(const CacheKey&, const CanonicalOutcome&)>& fn)
      const;

  /// Test hook: flips bit `bit` (modulo their length) of the entry's
  /// packed cut words, or of its objective when the cut is empty,
  /// without updating the integrity word, so the next read detects
  /// corruption.  Returns whether the key was present.
  bool corrupt_for_test(const CacheKey& key, std::uint64_t bit = 0);

  CacheStats stats() const;

  int shard_of(const CacheKey& key) const;

  /// Entry count of one shard (tests assert the distribution is sane).
  std::size_t shard_entries(int shard) const;

 private:
  /// A cached outcome, packed (see the top of this file).
  struct Entry {
    CacheKey key;
    graph::Weight objective = 0;
    obs::SolveCounters counters;
    std::vector<std::uint64_t> cut_words;  // L-bit low fields, then highs
    std::size_t bytes = 0;                 // cost against the budget
    int components = 1;
    std::uint32_t cut_size = 0;            // edges in the cut
    std::uint32_t crc = 0;      // CRC32C over key, scalars and cut_words
    std::uint8_t cut_low_bits = 0;  // L, the width of each low field
    bool recovered = false;     // loaded from disk, not computed here
    bool needs_verify = false;  // independent check pending
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index;
    std::size_t bytes = 0;
    std::uint64_t hits = 0, misses = 0, insertions = 0, evictions = 0;
    std::uint64_t lookup_faults = 0, store_faults = 0;
    std::uint64_t put_rejected = 0, corrupt = 0;
    std::uint64_t recovered_entries = 0, warm_hits = 0;
  };

  /// Packs `outcome` under `key`, with its cost and CRC.
  static Entry pack(const CacheKey& key, const CanonicalOutcome& outcome);
  /// Unpacks `e` into `out`, reusing out's cut capacity.
  static void unpack(const Entry& e, CanonicalOutcome& out);
  /// Integrity word over everything a hit serves: the key, the scalars
  /// and the packed cut.
  static std::uint32_t entry_crc(const Entry& e);
  void put_impl(Shard& s, Entry&& e);
  std::size_t entry_cap() const;

  std::size_t shard_budget_ = 0;
  std::size_t max_entry_bytes_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  QuarantineFn quarantine_;
};

}  // namespace tgp::svc
