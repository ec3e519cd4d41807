// Durable warm start, end to end at the service layer: a PartitionService
// with a cache_dir journals every solve, a successor service on the same
// directory recovers the entries, serves them as warm hits bit-identical
// to fresh solves, and quarantines anything the independent verifier
// rejects.  Also covers the persist codec (svc/persist.hpp) directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "dur/journal.hpp"
#include "graph/cutset.hpp"
#include "graph/generators.hpp"
#include "svc/persist.hpp"
#include "svc/service.hpp"
#include "tools/serve_tool.hpp"
#include "util/rng.hpp"

namespace tgp::svc {
namespace {

/// Fresh per-test cache directory (remove the store files so reruns in
/// the same TempDir start cold).
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  for (const char* f :
       {"/cache.snapshot", "/cache.journal", "/cache.clean",
        "/quarantine.bin"})
    std::remove((dir + f).c_str());
  return dir;
}

ServiceConfig durable_config(const std::string& dir) {
  ServiceConfig config;
  config.threads = 2;
  config.cache_dir = dir;
  return config;
}

void expect_same_results(const std::vector<JobResult>& a,
                         const std::vector<JobResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << "job " << i;
    EXPECT_EQ(a[i].objective, b[i].objective) << "job " << i;
    EXPECT_EQ(a[i].cut.edges, b[i].cut.edges) << "job " << i;
    EXPECT_EQ(a[i].components, b[i].components) << "job " << i;
  }
}

/// The service's payload for `spec` equals the direct path's.
void expect_direct_payload(const JobResult& got, const JobSpec& spec) {
  const JobResult want = execute_job(spec);
  EXPECT_EQ(got.status, JobStatus::kOk);
  EXPECT_EQ(got.objective, want.objective);
  EXPECT_EQ(got.cut.edges, want.cut.edges);
  EXPECT_EQ(got.components, want.components);
}

/// One tree, as built and relabelled, with a K that forces a real cut.
struct TreePresentations {
  graph::Tree built;
  graph::Tree relabelled;
  graph::Weight K = 0;
};

TreePresentations tree_presentations(std::uint64_t seed) {
  util::Pcg32 rng(seed, 41);
  graph::Tree t = graph::random_tree(rng, 60, graph::WeightDist::uniform(1, 20),
                                     graph::WeightDist::uniform(1, 20));
  const graph::Weight K =
      t.max_vertex_weight() +
      0.2 * (t.total_vertex_weight() - t.max_vertex_weight());
  graph::Tree r = graph::relabel_tree(rng, t);
  return {std::move(t), std::move(r), K};
}

// --- the persist codec ---------------------------------------------------

TEST(PersistCodec, RoundTripsKeyAndOutcome) {
  CacheKey key = CacheKey::make({0x1234, 0x5678}, Problem::kBandwidth, 7.5);
  CanonicalOutcome o;
  o.cut.edges = {3, 1, 4};
  o.objective = 2.25;
  o.components = 4;
  o.counters.oracle_calls = 99;
  o.counters.gallop_probes = 7;
  o.counters.arena_bytes_peak = 4096;

  std::vector<std::uint8_t> bytes = encode_cache_record(key, o);
  // Fixed header (44 bytes), one u32 per cut edge, then nine counter
  // words: the record kept its length when two of them were retired.
  ASSERT_EQ(bytes.size(), 44u + 3 * 4 + 9 * 8);
  // The retired words are the last two and are written as 0.
  for (std::size_t i = bytes.size() - 16; i < bytes.size(); ++i)
    EXPECT_EQ(bytes[i], 0u) << "byte " << i;

  auto expect_intact = [&](const std::vector<std::uint8_t>& record) {
    CacheKey back_key;
    CanonicalOutcome back;
    ASSERT_TRUE(decode_cache_record(record, back_key, back));
    EXPECT_EQ(back_key, key);
    EXPECT_EQ(back.cut.edges, o.cut.edges);
    EXPECT_EQ(back.objective, o.objective);
    EXPECT_EQ(back.components, o.components);
    EXPECT_EQ(back.counters, o.counters);
  };
  expect_intact(bytes);
  // Records written while the words were live (a run with more than one
  // solve thread) carry non-zero values there; they decode the same.
  for (std::size_t i = bytes.size() - 16; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(0xA0 + i % 16);
  expect_intact(bytes);
}

TEST(PersistCodec, RejectsTruncatedAndOversizedPayloads) {
  CacheKey key = CacheKey::make({1, 2}, Problem::kProcMin, 3.0);
  CanonicalOutcome o;
  o.cut.edges = {1, 2};
  o.objective = 3;
  o.components = 3;
  std::vector<std::uint8_t> bytes = encode_cache_record(key, o);

  CacheKey k2;
  CanonicalOutcome o2;
  for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
    std::vector<std::uint8_t> torn(bytes.begin(),
                                   bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(decode_cache_record(torn, k2, o2)) << "kept " << keep;
  }
  // A declared cut length far past the payload must not allocate.
  std::vector<std::uint8_t> lying = bytes;
  const std::size_t cut_len_off = 8 + 8 + 4 + 8 + 8 + 4;
  lying[cut_len_off] = 0xFF;
  lying[cut_len_off + 1] = 0xFF;
  lying[cut_len_off + 2] = 0xFF;
  lying[cut_len_off + 3] = 0x7F;
  EXPECT_FALSE(decode_cache_record(lying, k2, o2));
}

// --- warm restart through the service ------------------------------------

TEST(WarmStart, SecondServiceRecoversAndServesWarmHits) {
  const std::string dir = fresh_dir("warmstart_basic");
  std::vector<JobSpec> specs = tools::generate_workload(24, 5, 0.0);

  std::vector<JobResult> cold;
  {
    PartitionService service(durable_config(dir));
    cold = service.run_batch(specs);
    MetricsSnapshot m = service.metrics();
    EXPECT_TRUE(m.durability.enabled);
    EXPECT_GT(m.durability.journal_appends, 0u);
    EXPECT_EQ(m.durability.recovered_entries, 0u) << "first boot is cold";
    service.shutdown();
    EXPECT_GT(service.flush_durable(), 0u);
  }

  PartitionService warm_service(durable_config(dir));
  MetricsSnapshot boot = warm_service.metrics();
  EXPECT_TRUE(boot.durability.clean_start);
  EXPECT_GT(boot.durability.recovered_entries, 0u);
  EXPECT_EQ(boot.durability.dropped_crc + boot.durability.dropped_truncated +
                boot.durability.dropped_malformed,
            0u);

  std::vector<JobResult> warm = warm_service.run_batch(specs);
  expect_same_results(cold, warm);
  MetricsSnapshot m = warm_service.metrics();
  EXPECT_GT(m.cache.warm_hits, 0u) << "recovered entries must serve hits";
  EXPECT_GT(m.durability.verified_ok, 0u)
      << "every recovery-loaded hit is independently verified";
  EXPECT_EQ(m.durability.verify_failed, 0u);
  for (const JobResult& r : warm) EXPECT_EQ(r.status, JobStatus::kOk);
}

// A chain hit maps back from the chain's orientation alone.  A chain,
// its reversal and a palindrome, under all four problems, hit the cache
// (one serial worker: the second presentation of each graph hits the
// first's entry) and, after a restart, hit recovered entries that the
// verifier checks before serving.  Every payload equals the direct
// path's, the reversal's cut mirrors the chain's, and every cut is
// feasible on the chain as submitted.
TEST(WarmStart, ChainHitsInEitherOrientationMatchTheDirectPath) {
  const std::string dir = fresh_dir("warmstart_chain_orientation");
  util::Pcg32 rng(0xC4A1u, 43);
  const auto w = graph::WeightDist::uniform(1, 20);
  const graph::Chain chain = graph::random_chain(rng, 80, w, w);
  const graph::Chain reversal = graph::reversed_chain(chain);
  ASSERT_NE(graph::chain_orientation(chain).reversed,
            graph::chain_orientation(reversal).reversed);
  graph::Chain palindrome = graph::random_chain(rng, 41, w, w);
  for (std::size_t i = 0; i < 20; ++i) {
    palindrome.vertex_weight[40 - i] = palindrome.vertex_weight[i];
    palindrome.edge_weight[39 - i] = palindrome.edge_weight[i];
  }
  ASSERT_EQ(graph::reversed_chain(palindrome).vertex_weight,
            palindrome.vertex_weight);
  auto bound = [](const graph::Chain& c) {
    return c.max_vertex_weight() +
           0.2 * (c.total_vertex_weight() - c.max_vertex_weight());
  };
  std::vector<JobSpec> specs;
  for (int p = 0; p < kProblemCount; ++p) {
    const auto problem = static_cast<Problem>(p);
    specs.push_back(JobSpec::for_chain(problem, bound(chain), chain));
    specs.push_back(JobSpec::for_chain(problem, bound(chain), reversal));
    specs.push_back(JobSpec::for_chain(problem, bound(palindrome), palindrome));
    specs.push_back(JobSpec::for_chain(problem, bound(palindrome), palindrome));
  }
  auto check = [&](const std::vector<JobResult>& got) {
    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      expect_direct_payload(got[i], specs[i]);
      EXPECT_TRUE(graph::chain_cut_feasible(*specs[i].chain, got[i].cut,
                                            specs[i].K));
      if (i % 4 != 1) continue;
      std::vector<int> mirrored;
      for (int e : got[i - 1].cut.edges)
        mirrored.push_back(chain.edge_count() - 1 - e);
      std::sort(mirrored.begin(), mirrored.end());
      EXPECT_EQ(got[i].cut.edges, mirrored);
      EXPECT_FALSE(got[i].cut.edges.empty());
    }
  };
  ServiceConfig config = durable_config(dir);
  config.threads = 1;
  {
    PartitionService service(config);
    const std::vector<JobResult> cold = service.run_batch(specs);
    check(cold);
    for (std::size_t i = 0; i < cold.size(); ++i)
      EXPECT_EQ(cold[i].cache_hit, i % 2 == 1) << "job " << i;
    service.shutdown();
    EXPECT_EQ(service.flush_durable(), 2u * kProblemCount);
  }
  PartitionService warm_service(config);
  const std::vector<JobResult> warm = warm_service.run_batch(specs);
  check(warm);
  for (const JobResult& r : warm) EXPECT_TRUE(r.cache_hit);
  const MetricsSnapshot m = warm_service.metrics();
  EXPECT_EQ(m.durability.recovered_entries, 2u * kProblemCount);
  EXPECT_EQ(m.durability.verified_ok, 2u * kProblemCount)
      << "each recovered entry is verified once, before its first hit";
  EXPECT_EQ(m.durability.verify_failed, 0u);
}

TEST(WarmStart, CrashWithoutFlushStillRecoversFromTheJournal) {
  const std::string dir = fresh_dir("warmstart_crash");
  std::vector<JobSpec> specs = tools::generate_workload(12, 6, 0.0);

  std::vector<JobResult> cold;
  {
    PartitionService service(durable_config(dir));
    cold = service.run_batch(specs);
    // No flush_durable(): destructor shutdown models a hard stop.
  }

  PartitionService warm_service(durable_config(dir));
  MetricsSnapshot boot = warm_service.metrics();
  EXPECT_FALSE(boot.durability.clean_start);
  EXPECT_GT(boot.durability.recovered_entries, 0u);
  expect_same_results(cold, warm_service.run_batch(specs));
}

TEST(WarmStart, DuplicateJournalRecordsDedupeLastWriteWins) {
  const std::string dir = fresh_dir("warmstart_dupes");
  std::vector<JobSpec> specs = tools::generate_workload(6, 7, 0.0);
  {
    PartitionService service(durable_config(dir));
    service.run_batch(specs);
    // The same batch again: every solve is a cache hit, so no new
    // journal records — then force re-journaling via compaction plus a
    // fresh batch after an artificial journal append of the same keys.
    service.run_batch(specs);
    service.flush_durable();
  }
  // Append duplicate records by hand (same encoded entries, twice).
  {
    dur::CacheStore::Config sc;
    sc.dir = dir;
    sc.epoch = kCacheRecordEpoch;
    dur::CacheStore store(sc);
    std::vector<std::vector<std::uint8_t>> entries;
    ASSERT_TRUE(store.load([&](std::span<const std::uint8_t> r) {
      entries.emplace_back(r.begin(), r.end());
    }));
    for (const auto& e : entries) ASSERT_TRUE(store.append(e));
    ASSERT_TRUE(store.flush_clean());
  }
  PartitionService warm_service(durable_config(dir));
  MetricsSnapshot boot = warm_service.metrics();
  EXPECT_GT(boot.durability.duplicates, 0u);
  EXPECT_EQ(boot.durability.recovered_entries + boot.durability.duplicates,
            boot.durability.recovered_entries * 2)
      << "each key seen exactly twice, kept once";
}

TEST(WarmStart, MalformedJournalRecordIsCountedAndSkipped) {
  const std::string dir = fresh_dir("warmstart_malformed");
  std::vector<JobSpec> specs = tools::generate_workload(8, 8, 0.0);
  {
    PartitionService service(durable_config(dir));
    service.run_batch(specs);
    service.flush_durable();
  }
  // A record that frames and checksums fine but does not decode as a
  // cache entry (e.g. written by a different tool version).
  {
    dur::CacheStore::Config sc;
    sc.dir = dir;
    sc.epoch = kCacheRecordEpoch;
    dur::CacheStore store(sc);
    ASSERT_TRUE(store.load([](std::span<const std::uint8_t>) {}));
    const std::vector<std::uint8_t> junk{1, 2, 3};
    ASSERT_TRUE(store.append(junk));
    ASSERT_TRUE(store.flush_clean());
  }
  PartitionService warm_service(durable_config(dir));
  MetricsSnapshot boot = warm_service.metrics();
  EXPECT_EQ(boot.durability.dropped_malformed, 1u);
  EXPECT_GT(boot.durability.recovered_entries, 0u)
      << "good records around the junk still load";
}

TEST(WarmStart, VerifierQuarantinesASemanticallyCorruptRecord) {
  const std::string dir = fresh_dir("warmstart_verify");
  // Two deterministic chain jobs, and one tree job that the warm service
  // receives relabelled.
  graph::Chain chain{{2, 3, 1, 4, 2}, {5, 1, 7, 2}};
  JobSpec spec = JobSpec::for_chain(Problem::kBottleneck, 7, chain);
  JobSpec procmin_spec = JobSpec::for_chain(Problem::kProcMin, 7, chain);
  TreePresentations tp = tree_presentations(7);
  JobSpec tree_spec = JobSpec::for_tree(Problem::kBottleneck, tp.K, tp.built);
  JobSpec relabelled_spec =
      JobSpec::for_tree(Problem::kBottleneck, tp.K, tp.relabelled);

  std::vector<JobResult> cold;
  {
    PartitionService service(durable_config(dir));
    cold = service.run_batch({spec, tree_spec, procmin_spec});
    for (const JobResult& r : cold) ASSERT_EQ(r.status, JobStatus::kOk);
    ASSERT_FALSE(cold[1].cut.edges.empty()) << "K must force a cut";
    service.flush_durable();
  }
  // Rewrite the stored records with a corrupted objective, or for the
  // proc-min record an extra cut edge far out of range (0xFFFFFFFF, the
  // largest index a record can hold): framing CRC fine, semantics wrong
  // — exactly what the independent verifier is for.
  {
    dur::CacheStore::Config sc;
    sc.dir = dir;
    sc.epoch = kCacheRecordEpoch;
    dur::CacheStore store(sc);
    std::vector<std::vector<std::uint8_t>> entries;
    ASSERT_TRUE(store.load([&](std::span<const std::uint8_t> r) {
      entries.emplace_back(r.begin(), r.end());
    }));
    ASSERT_EQ(entries.size(), 3u);
    for (const std::vector<std::uint8_t>& entry : entries) {
      CacheKey key;
      CanonicalOutcome o;
      ASSERT_TRUE(decode_cache_record(entry, key, o));
      if (key.problem == Problem::kProcMin)
        o.cut.edges.push_back(static_cast<int>(0xFFFFFFFFu));
      else
        o.objective += 1.0;  // now provably wrong for this cut
      ASSERT_TRUE(store.append(encode_cache_record(key, o)));
    }
    ASSERT_TRUE(store.flush_clean());
  }
  PartitionService warm_service(durable_config(dir));
  EXPECT_EQ(warm_service.metrics().durability.recovered_entries, 3u)
      << "every record loads; only the verifier can reject them";
  std::vector<JobResult> warm =
      warm_service.run_batch({spec, relabelled_spec, procmin_spec});
  // Each corrupt entry was rejected at hit time and its job re-solved:
  // the answers are still the correct ones.  The tree job builds its
  // canonical tree to verify the hit and reuses it for the re-solve.
  expect_same_results({cold[0], cold[2]}, {warm[0], warm[2]});
  expect_direct_payload(warm[1], relabelled_spec);
  for (const JobResult& r : warm) EXPECT_FALSE(r.cache_hit);
  MetricsSnapshot m = warm_service.metrics();
  EXPECT_EQ(m.durability.verify_failed, 3u);
  EXPECT_EQ(m.durability.quarantined, 3u);
  EXPECT_GE(m.durability.verified_ok, 0u);
}

TEST(WarmStart, VerifyResultsFlagChecksFreshSolvesToo) {
  ServiceConfig config;
  config.threads = 2;
  config.verify_results = true;  // no cache_dir: pure verification mode
  PartitionService service(config);
  std::vector<JobSpec> specs = tools::generate_workload(16, 9, 0.0);
  std::vector<JobResult> got = service.run_batch(specs);
  for (const JobResult& r : got) EXPECT_EQ(r.status, JobStatus::kOk);
  // A tree solved in one presentation, then served as a verified hit in
  // the other, each way round (one problem per order, so the keys
  // differ): both the solve and the hit's verify build a canonical tree.
  TreePresentations tp = tree_presentations(9);
  const std::vector<JobSpec> misses = {
      JobSpec::for_tree(Problem::kBottleneck, tp.K, tp.built),
      JobSpec::for_tree(Problem::kProcMin, tp.K, tp.relabelled)};
  const std::vector<JobSpec> hits = {
      JobSpec::for_tree(Problem::kBottleneck, tp.K, tp.relabelled),
      JobSpec::for_tree(Problem::kProcMin, tp.K, tp.built)};
  const std::vector<JobResult> missed = service.run_batch(misses);
  const std::vector<JobResult> hit = service.run_batch(hits);
  for (std::size_t i = 0; i < misses.size(); ++i) {
    EXPECT_FALSE(missed[i].cache_hit) << i;
    expect_direct_payload(missed[i], misses[i]);
    EXPECT_TRUE(hit[i].cache_hit) << i;
    expect_direct_payload(hit[i], hits[i]);
  }
  MetricsSnapshot m = service.metrics();
  EXPECT_FALSE(m.durability.enabled);
  EXPECT_EQ(m.durability.verified_ok,
            static_cast<std::uint64_t>(got.size() + misses.size() +
                                       hits.size()));
  EXPECT_EQ(m.durability.verify_failed, 0u);
}

TEST(WarmStart, CompactionPreservesEveryEntry) {
  const std::string dir = fresh_dir("warmstart_compact");
  std::vector<JobSpec> specs = tools::generate_workload(20, 10, 0.0);
  std::size_t entries_before = 0;
  {
    PartitionService service(durable_config(dir));
    service.run_batch(specs);
    entries_before = service.metrics().cache.entries;
    ASSERT_TRUE(service.compact_cache_store());
    MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.durability.compactions, 1u);
    service.flush_durable();
  }
  PartitionService warm_service(durable_config(dir));
  MetricsSnapshot boot = warm_service.metrics();
  EXPECT_EQ(boot.durability.recovered_entries, entries_before)
      << "compaction must not lose entries";
}

}  // namespace
}  // namespace tgp::svc
