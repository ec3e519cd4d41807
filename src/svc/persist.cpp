#include "svc/persist.hpp"

#include <bit>
#include <cstring>

namespace tgp::svc {
namespace {

// SolveCounters is persisted as its individual u64 fields, named here
// so a struct reorder cannot silently change the file layout.  The last
// two words are retired (they held intra-solve parallelism counters):
// written as 0 and ignored on read, so the record length — and every
// store written before their retirement — stays valid.
constexpr std::size_t kCounterWords = 9;

// Decoded cuts are bounded well below the framing layer's 64 MB record
// cap; anything bigger is garbage that happened to checksum.
constexpr std::uint32_t kMaxCutEdges = 1u << 24;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

struct Reader {
  const std::uint8_t* p;
  std::size_t left;

  bool u32(std::uint32_t& v) {
    if (left < 4) return false;
    v = std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
        (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
    p += 4;
    left -= 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    std::uint32_t lo, hi;
    if (!u32(lo) || !u32(hi)) return false;
    v = std::uint64_t{lo} | (std::uint64_t{hi} << 32);
    return true;
  }
};

}  // namespace

void encode_cache_record(std::vector<std::uint8_t>& out, const CacheKey& key,
                         const CanonicalOutcome& o) {
  out.reserve(out.size() + 56 + o.cut.edges.size() * 4 + kCounterWords * 8);
  put_u64(out, key.graph.lo);
  put_u64(out, key.graph.hi);
  put_u32(out, static_cast<std::uint32_t>(key.problem));
  put_u64(out, key.k_bits);
  put_u64(out, std::bit_cast<std::uint64_t>(o.objective));
  put_u32(out, static_cast<std::uint32_t>(o.components));
  put_u32(out, static_cast<std::uint32_t>(o.cut.edges.size()));
  for (int e : o.cut.edges) put_u32(out, static_cast<std::uint32_t>(e));
  const obs::SolveCounters& c = o.counters;
  const std::uint64_t words[kCounterWords] = {
      c.oracle_calls,  c.bsearch_probes,     c.gallop_probes,
      c.prime_subpaths, c.nonredundant_edges, c.temps_peak_rows,
      c.arena_bytes_peak, 0,                  0};
  for (std::uint64_t w : words) put_u64(out, w);
}

std::vector<std::uint8_t> encode_cache_record(const CacheKey& key,
                                              const CanonicalOutcome& o) {
  std::vector<std::uint8_t> out;
  encode_cache_record(out, key, o);
  return out;
}

bool decode_cache_record(std::span<const std::uint8_t> payload, CacheKey& key,
                         CanonicalOutcome& o) {
  Reader r{payload.data(), payload.size()};
  std::uint32_t problem, components, cut_size;
  std::uint64_t objective_bits;
  if (!r.u64(key.graph.lo) || !r.u64(key.graph.hi) || !r.u32(problem) ||
      !r.u64(key.k_bits) || !r.u64(objective_bits) || !r.u32(components) ||
      !r.u32(cut_size))
    return false;
  if (problem >= static_cast<std::uint32_t>(kProblemCount)) return false;
  key.problem = static_cast<Problem>(problem);
  o.objective = std::bit_cast<graph::Weight>(objective_bits);
  o.components = static_cast<int>(components);
  if (cut_size > kMaxCutEdges || r.left < std::size_t{cut_size} * 4)
    return false;
  o.cut.edges.clear();
  o.cut.edges.reserve(cut_size);
  for (std::uint32_t i = 0; i < cut_size; ++i) {
    std::uint32_t e = 0;
    r.u32(e);  // size pre-checked above
    o.cut.edges.push_back(static_cast<int>(e));
  }
  std::uint64_t words[kCounterWords];
  for (std::uint64_t& w : words)
    if (!r.u64(w)) return false;
  o.counters = obs::SolveCounters{words[0], words[1], words[2], words[3],
                                  words[4], words[5], words[6]};
  // Trailing bytes mean the writer spoke a newer dialect under the same
  // epoch — which is exactly what the epoch exists to prevent.
  return r.left == 0;
}

}  // namespace tgp::svc
