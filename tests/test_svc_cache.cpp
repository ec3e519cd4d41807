// Sharded LRU memo cache (svc/cache.hpp): keying, LRU eviction order,
// shard distribution, and the fingerprint "collisions" the service relies
// on — equivalent presentations (reversed chains, relabeled trees) must
// map to the same cache entry.
#include "svc/cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace tgp::svc {
namespace {

using graph::Fingerprint;

Fingerprint fp(std::uint64_t hi, std::uint64_t lo) { return {hi, lo}; }

CanonicalOutcome outcome(int tag) {
  CanonicalOutcome o;
  o.cut.edges = {tag};
  o.objective = tag;
  o.components = 2;
  return o;
}

TEST(MemoCache, RejectsNonPowerOfTwoShards) {
  EXPECT_THROW(MemoCache(1 << 20, 3), std::invalid_argument);
  EXPECT_THROW(MemoCache(1 << 20, 0), std::invalid_argument);
}

TEST(MemoCache, GetMissThenHit) {
  MemoCache cache(1 << 20, 4);
  CacheKey k = CacheKey::make(fp(1, 2), Problem::kBandwidth, 10.0);
  EXPECT_FALSE(cache.get(k).has_value());
  cache.put(k, outcome(7));
  auto hit = cache.get(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cut.edges, std::vector<int>{7});
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(MemoCache, KeyIncludesProblemAndK) {
  MemoCache cache(1 << 20, 1);
  Fingerprint g = fp(42, 43);
  cache.put(CacheKey::make(g, Problem::kBandwidth, 10.0), outcome(1));
  EXPECT_FALSE(
      cache.get(CacheKey::make(g, Problem::kBottleneck, 10.0)).has_value());
  EXPECT_FALSE(
      cache.get(CacheKey::make(g, Problem::kBandwidth, 11.0)).has_value());
  EXPECT_TRUE(
      cache.get(CacheKey::make(g, Problem::kBandwidth, 10.0)).has_value());
}

TEST(MemoCache, EvictsLeastRecentlyUsedFirst) {
  // Single shard, tight budget: fill until evictions happen, then verify
  // the survivors are exactly the most recently used suffix.
  MemoCache cache(2048, 1);
  const int kInserted = 64;
  for (int i = 0; i < kInserted; ++i)
    cache.put(CacheKey::make(fp(1, static_cast<std::uint64_t>(i)),
                             Problem::kBandwidth, 1.0),
              outcome(i));
  CacheStats s = cache.stats();
  ASSERT_GT(s.evictions, 0u) << "budget chosen too large for the test";
  int kept = static_cast<int>(s.entries);
  ASSERT_GT(kept, 1);
  // Oldest (kInserted - kept) entries evicted, newest `kept` retained.
  for (int i = 0; i < kInserted; ++i) {
    bool expect_hit = i >= kInserted - kept;
    EXPECT_EQ(cache
                  .get(CacheKey::make(fp(1, static_cast<std::uint64_t>(i)),
                                      Problem::kBandwidth, 1.0))
                  .has_value(),
              expect_hit)
        << "entry " << i;
  }
}

TEST(MemoCache, GetRefreshesLruPosition) {
  MemoCache cache(2048, 1);
  // Fill to capacity without evictions.
  int fits = 0;
  for (int i = 0; i < 256; ++i) {
    cache.put(CacheKey::make(fp(2, static_cast<std::uint64_t>(i)),
                             Problem::kProcMin, 1.0),
              outcome(i));
    if (cache.stats().evictions > 0) break;
    fits = i + 1;
  }
  ASSERT_GT(fits, 2);
  MemoCache c2(2048, 1);
  for (int i = 0; i < fits; ++i)
    c2.put(CacheKey::make(fp(3, static_cast<std::uint64_t>(i)),
                          Problem::kProcMin, 1.0),
           outcome(i));
  // Touch entry 0, insert one more: entry 1 (now oldest) must go, 0 stay.
  ASSERT_TRUE(
      c2.get(CacheKey::make(fp(3, 0), Problem::kProcMin, 1.0)).has_value());
  c2.put(CacheKey::make(fp(3, 1000), Problem::kProcMin, 1.0), outcome(0));
  EXPECT_TRUE(
      c2.get(CacheKey::make(fp(3, 0), Problem::kProcMin, 1.0)).has_value());
  EXPECT_FALSE(
      c2.get(CacheKey::make(fp(3, 1), Problem::kProcMin, 1.0)).has_value());
}

TEST(MemoCache, ZeroBudgetStoresNothingButCounts) {
  MemoCache cache(0, 2);
  CacheKey k = CacheKey::make(fp(9, 9), Problem::kPipeline, 2.0);
  cache.put(k, outcome(1));
  EXPECT_FALSE(cache.get(k).has_value());
  CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(MemoCache, ShardsAllReceiveTraffic) {
  MemoCache cache(std::size_t{16} << 20, 16);
  util::Pcg32 rng(2024, 9);
  for (int i = 0; i < 2000; ++i) {
    Fingerprint g = fp(rng.next() | (std::uint64_t{rng.next()} << 32),
                       rng.next() | (std::uint64_t{rng.next()} << 32));
    cache.put(CacheKey::make(g, Problem::kBandwidth, 1.0), outcome(i));
  }
  CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2000u);
  std::size_t total = 0;
  for (int shard = 0; shard < 16; ++shard) {
    std::size_t e = cache.shard_entries(shard);
    EXPECT_GT(e, 0u) << "shard " << shard << " starved";
    total += e;
  }
  EXPECT_EQ(total, 2000u);
}

// --- fingerprint-level equivalence, as the service uses it ---------------

TEST(MemoCache, ReversedChainHitsSameEntry) {
  util::Pcg32 rng(77, 5);
  graph::Chain c = graph::random_chain(rng, 60, graph::WeightDist::uniform(1, 50),
                                       graph::WeightDist::uniform(1, 50));
  graph::Chain r = graph::reversed_chain(c);
  MemoCache cache(1 << 20, 4);
  CacheKey kc =
      CacheKey::make(graph::chain_fingerprint(c), Problem::kBandwidth, 5.0);
  CacheKey kr =
      CacheKey::make(graph::chain_fingerprint(r), Problem::kBandwidth, 5.0);
  EXPECT_EQ(kc, kr);
  cache.put(kc, outcome(3));
  EXPECT_TRUE(cache.get(kr).has_value());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(MemoCache, RelabeledTreeHitsSameEntry) {
  util::Pcg32 rng(78, 5);
  graph::Tree t = graph::random_tree(rng, 40, graph::WeightDist::uniform(1, 50),
                                     graph::WeightDist::uniform(1, 50));
  MemoCache cache(1 << 20, 4);
  CacheKey kt =
      CacheKey::make(graph::tree_fingerprint(t), Problem::kProcMin, 9.0);
  cache.put(kt, outcome(4));
  for (int rep = 0; rep < 4; ++rep) {
    graph::Tree perm = graph::relabel_tree(rng, t);
    CacheKey kp =
        CacheKey::make(graph::tree_fingerprint(perm), Problem::kProcMin, 9.0);
    EXPECT_EQ(kt, kp);
    EXPECT_TRUE(cache.get(kp).has_value());
  }
  EXPECT_EQ(cache.stats().entries, 1u);
}

// --- integrity: entry CRCs, the per-entry cap, recovered entries ---------

TEST(MemoCache, PerEntryCapRejectsOversizedPuts) {
  // The cap must cover the fixed Entry overhead plus a small cut, but
  // not the 10k-edge cut below.
  MemoCache cache(1 << 20, 1, /*max_entry_bytes=*/1024);
  CacheKey small = CacheKey::make(fp(1, 1), Problem::kBandwidth, 1.0);
  cache.put(small, outcome(1));
  EXPECT_TRUE(cache.get(small).has_value());

  CanonicalOutcome big;
  big.cut.edges.assign(10'000, 0);
  for (int i = 0; i < 10'000; ++i) big.cut.edges[static_cast<size_t>(i)] = i;
  CacheKey k = CacheKey::make(fp(1, 2), Problem::kBandwidth, 1.0);
  cache.put(k, big);
  EXPECT_FALSE(cache.get(k).has_value()) << "oversized entry must not land";
  CacheStats s = cache.stats();
  EXPECT_EQ(s.put_rejected, 1u);
  EXPECT_EQ(s.entries, 1u) << "the small entry is unaffected";
  // A zero cap means "whole-shard budget only", not "reject everything".
  MemoCache uncapped(1 << 20, 1, 0);
  uncapped.put(k, big);
  EXPECT_TRUE(uncapped.get(k).has_value());
}

TEST(MemoCache, CorruptEntryReadsAsMissAndIsQuarantined) {
  MemoCache cache(1 << 20, 1);
  CacheKey k = CacheKey::make(fp(5, 5), Problem::kBottleneck, 3.0);
  cache.put(k, outcome(9));

  int quarantined = 0;
  cache.set_quarantine([&](const CacheKey& qk, const CanonicalOutcome&) {
    ++quarantined;
    EXPECT_EQ(qk, k);
  });
  ASSERT_TRUE(cache.corrupt_for_test(k));

  CanonicalOutcome out;
  EXPECT_FALSE(cache.get_into(k, out));
  EXPECT_EQ(quarantined, 1);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.corrupt, 1u);
  EXPECT_EQ(s.entries, 0u) << "the corrupt entry must be erased";
  // The slot is usable again.
  cache.put(k, outcome(10));
  EXPECT_TRUE(cache.get_into(k, out));
  EXPECT_EQ(out.cut.edges, std::vector<int>{10});
}

TEST(MemoCache, RecoveredEntriesCarryProvenanceUntilVerified) {
  MemoCache cache(1 << 20, 1);
  CacheKey k = CacheKey::make(fp(6, 6), Problem::kPipeline, 2.0);
  ASSERT_TRUE(cache.load_recovered(k, outcome(3)));
  EXPECT_EQ(cache.stats().recovered_entries, 1u);

  CanonicalOutcome out;
  CacheHitInfo info;
  ASSERT_TRUE(cache.get_into(k, out, &info));
  EXPECT_TRUE(info.recovered);
  EXPECT_TRUE(info.needs_verify) << "first recovered hit must be verified";
  EXPECT_EQ(cache.stats().warm_hits, 1u);

  cache.mark_verified(k);
  ASSERT_TRUE(cache.get_into(k, out, &info));
  EXPECT_TRUE(info.recovered) << "provenance survives verification";
  EXPECT_FALSE(info.needs_verify);
  EXPECT_EQ(cache.stats().warm_hits, 2u) << "warm hits keep counting";

  // A fresh put is neither recovered nor in need of verification.
  CacheKey k2 = CacheKey::make(fp(6, 7), Problem::kPipeline, 2.0);
  cache.put(k2, outcome(4));
  ASSERT_TRUE(cache.get_into(k2, out, &info));
  EXPECT_FALSE(info.recovered);
  EXPECT_FALSE(info.needs_verify);
  EXPECT_EQ(cache.stats().warm_hits, 2u);
}

TEST(MemoCache, QuarantineEraseDropsTheEntry) {
  MemoCache cache(1 << 20, 1);
  CacheKey k = CacheKey::make(fp(7, 7), Problem::kProcMin, 4.0);
  ASSERT_TRUE(cache.load_recovered(k, outcome(5)));
  cache.quarantine_erase(k);
  EXPECT_FALSE(cache.get(k).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
  // Erasing a missing key is a no-op, not an error.
  cache.quarantine_erase(k);
}

TEST(MemoCache, ForEachVisitsEveryEntry) {
  MemoCache cache(1 << 20, 4);
  for (int i = 0; i < 20; ++i)
    cache.put(CacheKey::make(fp(8, static_cast<std::uint64_t>(i)),
                             Problem::kBandwidth, 1.0),
              outcome(i));
  int seen = 0;
  cache.for_each([&](const CacheKey&, const CanonicalOutcome&) { ++seen; });
  EXPECT_EQ(seen, 20);
}

TEST(MemoCache, DistinctGraphsGetDistinctEntries) {
  util::Pcg32 rng(79, 5);
  MemoCache cache(std::size_t{1} << 22, 4);
  for (int i = 0; i < 50; ++i) {
    graph::Chain c =
        graph::random_chain(rng, 30, graph::WeightDist::uniform(1, 50),
                            graph::WeightDist::uniform(1, 50));
    cache.put(CacheKey::make(graph::chain_fingerprint(c),
                             Problem::kBandwidth, 1.0),
              outcome(i));
  }
  EXPECT_EQ(cache.stats().entries, 50u);
}

// --- the packed entry: cuts as Elias–Fano codes --------------------------

CanonicalOutcome outcome_with_cut(std::vector<int> cut) {
  CanonicalOutcome o;
  o.cut.edges = std::move(cut);
  o.objective = 12.5;
  o.components = static_cast<int>(o.cut.edges.size()) + 1;
  o.counters.oracle_calls = 3;
  o.counters.arena_bytes_peak = 4096;
  return o;
}

/// The cut as the cache serves it: ascending as std::uint32_t.
std::vector<int> ascending(std::vector<int> cut) {
  std::sort(cut.begin(), cut.end(), [](int a, int b) {
    return static_cast<std::uint32_t>(a) < static_cast<std::uint32_t>(b);
  });
  return cut;
}

TEST(MemoCache, PackedCutsRoundTrip) {
  const int m = 1000;
  std::vector<int> every_edge(m), every_other;
  for (int e = 0; e < m; ++e) every_edge[static_cast<std::size_t>(e)] = e;
  for (int e = 0; e < m; e += 2) every_other.push_back(e);
  std::vector<std::vector<int>> cuts = {
      {},
      {0},
      every_edge,
      every_other,
      {0, 1 << 30, 0x7FFFFFFF},  // low fields straddle words
      {3, 7, 7, 12},             // a repeated edge
      {40, 3, 17, 3000, 5},      // unsorted: served ascending
      // Read as std::uint32_t this ascends, so it comes back as given.
      {0, 5, static_cast<int>(0xFFFFFFFFu)},
  };
  // The last of every `step` edges: u/e = step, so the low fields are 1,
  // 2 and 3 bits wide, over whole words and a part word; 3-bit fields
  // straddle words.
  for (int step : {2, 4, 9}) {
    cuts.emplace_back();
    for (int e = step - 1; e < m; e += step) cuts.back().push_back(e);
  }
  MemoCache cache(std::size_t{1} << 22, 4);
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    const CanonicalOutcome o = outcome_with_cut(cuts[i]);
    const CacheKey put_key =
        CacheKey::make(fp(11, i), Problem::kBandwidth, 1.0);
    const CacheKey rec_key =
        CacheKey::make(fp(12, i), Problem::kBandwidth, 1.0);
    cache.put(put_key, o);
    ASSERT_TRUE(cache.load_recovered(rec_key, o));
    for (const CacheKey& k : {put_key, rec_key}) {
      CanonicalOutcome out = outcome_with_cut({99, 98, 97});  // stale scratch
      ASSERT_TRUE(cache.get_into(k, out)) << "cut " << i;
      EXPECT_EQ(out.cut.edges, ascending(cuts[i])) << "cut " << i;
      EXPECT_EQ(out.objective, o.objective);
      EXPECT_EQ(out.components, o.components);
      EXPECT_EQ(out.counters, o.counters);
    }
  }
  std::size_t seen = 0;
  cache.for_each([&](const CacheKey& k, const CanonicalOutcome& out) {
    ++seen;
    EXPECT_EQ(out.cut.edges, ascending(cuts[k.graph.lo]))
        << "cut " << k.graph.lo;
    EXPECT_EQ(out.counters, outcome_with_cut({}).counters);
  });
  EXPECT_EQ(seen, 2 * cuts.size());
  CacheStats s = cache.stats();
  EXPECT_EQ(s.put_rejected, 0u);
  EXPECT_EQ(s.corrupt, 0u);
}

TEST(MemoCache, DenseTreeBottleneckCutFitsOneShard) {
  // service_churn's tree shape: uniform attachment, vertex weights 1-50,
  // edge weights 1-100, and a load bound 1% of the way from the heaviest
  // vertex to the whole tree.  Its bottleneck cut keeps about half the
  // edges, which at 4 bytes an edge did not fit a 16 KiB shard.
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    util::Pcg32 rng(seed, 0xDE45E);
    const graph::Tree t =
        graph::random_tree(rng, 16384, graph::WeightDist::uniform(1, 50),
                           graph::WeightDist::uniform(1, 100));
    const double K = t.max_vertex_weight() +
                     0.01 * (t.total_vertex_weight() - t.max_vertex_weight());
    const CanonicalOutcome o = solve_canonical_tree(
        Problem::kBottleneck, graph::canonical_tree(t).tree, K);
    ASSERT_GT(o.cut.size(), 4036) << "seed " << seed;
    MemoCache cache(std::size_t{256} << 10, 16);
    const CacheKey k = CacheKey::make(fp(13, seed), Problem::kBottleneck, K);
    cache.put(k, o);
    EXPECT_EQ(cache.stats().put_rejected, 0u) << "seed " << seed;
    CanonicalOutcome out;
    ASSERT_TRUE(cache.get_into(k, out)) << "seed " << seed;
    EXPECT_EQ(out.cut.edges, o.cut.edges);
    EXPECT_EQ(out.objective, o.objective);
    EXPECT_EQ(out.components, o.components);
  }
}

TEST(MemoCache, CorruptPackedWordsUnpackInsideTheEntry) {
  // The quarantine hook unpacks an entry whose words failed their CRC.
  // Whatever bits flipped, the unpack reads only the entry's own words
  // (ASan builds fault otherwise) and yields at most the packed count.
  std::vector<std::vector<int>> cuts = {{0, 1 << 30, 0x7FFFFFFF}, {}, {}};
  for (int e = 0; e < 5000; e += 1 + e % 3) cuts[1].push_back(e);
  for (int e = 3; e < 5000; e += 4) cuts[2].push_back(e);  // 2-bit lows
  util::Pcg32 rng(31, 7);
  int quarantined = 0;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    for (int round = 0; round < 200; ++round) {
      MemoCache cache(std::size_t{1} << 20, 1);
      std::size_t served = 0;
      cache.set_quarantine([&](const CacheKey&, const CanonicalOutcome& o) {
        ++quarantined;
        served = o.cut.edges.size();
      });
      const CacheKey k = CacheKey::make(fp(14, i), Problem::kProcMin, 2.0);
      cache.put(k, outcome_with_cut(cuts[i]));
      const int flips = 1 + round % 8;
      for (int f = 0; f < flips; ++f)
        ASSERT_TRUE(cache.corrupt_for_test(
            k, rng.next() | (std::uint64_t{rng.next()} << 32)));
      CanonicalOutcome out;
      const bool hit = cache.get_into(k, out);
      // An even number of flips can cancel out; then the entry is intact.
      if (hit) {
        EXPECT_EQ(out.cut.edges, cuts[i]);
      } else {
        EXPECT_LE(served, cuts[i].size());
        EXPECT_EQ(cache.stats().corrupt, 1u);
      }
    }
  }
  EXPECT_GT(quarantined, 450);
}

TEST(MemoCache, HitsDecodeWhileOtherThreadsEvict) {
  // One shard with room for one of these cuts (about 3.9 KB packed), so
  // each put evicts the entry other threads may be decoding.  A hit
  // decodes a copy of the words taken under the shard lock; decoding the
  // entry's own words after releasing it would race with the eviction
  // that frees them (TSan and ASan builds report it).
  std::vector<std::vector<int>> cuts(8);
  for (int c = 0; c < 8; ++c)
    for (int e = c; e < 20000; e += 2)
      cuts[static_cast<std::size_t>(c)].push_back(e);
  MemoCache cache(std::size_t{6} << 10, 1);
  std::atomic<int> hits{0}, mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      CanonicalOutcome out;
      for (int round = 0; round < 200; ++round) {
        const auto c = static_cast<std::size_t>(t + round) % cuts.size();
        const CacheKey k =
            CacheKey::make(fp(15, c), Problem::kBottleneck, 1.0);
        if (!cache.get_into(k, out)) {
          cache.put(k, outcome_with_cut(cuts[c]));
          if (!cache.get_into(k, out)) continue;  // evicted in between
        }
        ++hits;
        if (out.cut.edges != cuts[c]) ++mismatches;
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(hits.load(), 0);
  EXPECT_GT(cache.stats().evictions, 0u);
}

}  // namespace
}  // namespace tgp::svc
