// The binary wire protocol (net/wire.hpp): explicit little-endian
// fingerprint serialization, frame encode/decode round trips, in-place
// router patches, and defensive decoding of malformed payloads.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include "graph/fingerprint.hpp"
#include "obs/prom.hpp"
#include "util/rng.hpp"

namespace tgp::net {
namespace {

std::uint64_t next_u64(util::Pcg32& rng) {
  return (static_cast<std::uint64_t>(rng()) << 32) | rng();
}

svc::JobSpec chain_spec(int n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  graph::Chain c;
  for (int i = 0; i < n; ++i)
    c.vertex_weight.push_back(rng.uniform_real(1, 10));
  for (int i = 0; i + 1 < n; ++i)
    c.edge_weight.push_back(rng.uniform_real(1, 5));
  return svc::JobSpec::for_chain(svc::Problem::kBandwidth, 100.0,
                                 std::move(c));
}

svc::JobSpec tree_spec(int n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<graph::Weight> vw;
  std::vector<graph::TreeEdge> edges;
  for (int i = 0; i < n; ++i) vw.push_back(rng.uniform_real(1, 10));
  for (int i = 1; i < n; ++i) {
    int parent = static_cast<int>(rng.uniform_int(0, i - 1));
    edges.push_back({parent, i, rng.uniform_real(1, 5)});
  }
  return svc::JobSpec::for_tree(
      svc::Problem::kProcMin, 200.0,
      graph::Tree::from_edges(std::move(vw), std::move(edges)));
}

// ---- Fingerprint wire bytes (the satellite round-trip test) ---------------

TEST(FingerprintWire, StoreLeIsExplicitLittleEndian) {
  graph::Fingerprint fp;
  fp.lo = 0x0807060504030201ull;
  fp.hi = 0x100F0E0D0C0B0A09ull;
  unsigned char bytes[graph::Fingerprint::kWireBytes];
  fp.store_le(bytes);
  // lo first, then hi, each least-significant byte first — the layout is
  // pinned, not "whatever memcpy does on this host".
  for (std::size_t i = 0; i < graph::Fingerprint::kWireBytes; ++i)
    EXPECT_EQ(bytes[i], i + 1) << "byte " << i;
}

TEST(FingerprintWire, RoundTripsArbitraryValues) {
  util::Pcg32 rng(7);
  for (int trial = 0; trial < 1000; ++trial) {
    graph::Fingerprint fp;
    fp.hi = next_u64(rng);
    fp.lo = next_u64(rng);
    unsigned char bytes[graph::Fingerprint::kWireBytes];
    fp.store_le(bytes);
    EXPECT_EQ(graph::Fingerprint::load_le(bytes), fp);
  }
  // Edge patterns.
  for (std::uint64_t v : {std::uint64_t{0}, ~std::uint64_t{0},
                          std::uint64_t{1} << 63, std::uint64_t{1}}) {
    graph::Fingerprint fp{v, ~v};
    unsigned char bytes[graph::Fingerprint::kWireBytes];
    fp.store_le(bytes);
    EXPECT_EQ(graph::Fingerprint::load_le(bytes), fp);
  }
}

TEST(FingerprintWire, SubmitCarriesFingerprintVerbatim) {
  SubmitRequest req;
  req.tenant = 3;
  req.has_fingerprint = true;
  req.fingerprint = {0xDEADBEEFCAFEF00Dull, 0x0123456789ABCDEFull};
  req.spec = chain_spec(6, 1);
  std::vector<std::uint8_t> frame = encode_submit(req, 42);
  SubmitRequest back = decode_submit(
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes));
  EXPECT_TRUE(back.has_fingerprint);
  EXPECT_EQ(back.fingerprint, req.fingerprint);
}

// ---- Header round trips and parse failures --------------------------------

TEST(WireHeader, RoundTrips) {
  FrameHeader h;
  h.type = FrameType::kResult;
  h.request_id = 0xFEEDFACE12345678ull;
  h.payload_len = 513;
  std::vector<std::uint8_t> bytes;
  put_header(bytes, h);
  ASSERT_EQ(bytes.size(), kHeaderBytes);
  FrameHeader back = parse_header(bytes);
  EXPECT_EQ(back.magic, kMagic);
  // Frames without v2 fields stay at the minimum version — a fleet with
  // tracing off emits bytes a v1 peer can parse.
  EXPECT_EQ(back.version, kMinVersion);
  EXPECT_EQ(back.type, FrameType::kResult);
  EXPECT_EQ(back.request_id, h.request_id);
  EXPECT_EQ(back.payload_len, 513u);
}

TEST(WireHeader, RejectsBadMagicVersionAndType) {
  FrameHeader h;
  std::vector<std::uint8_t> good;
  put_header(good, h);

  std::vector<std::uint8_t> bad = good;
  bad[0] ^= 0xFF;  // magic
  EXPECT_THROW(parse_header(bad), WireError);

  bad = good;
  bad[4] = 99;  // version
  EXPECT_THROW(parse_header(bad), WireError);

  bad = good;
  bad[6] = 200;  // frame type
  EXPECT_THROW(parse_header(bad), WireError);

  EXPECT_THROW(
      parse_header(std::span<const std::uint8_t>(good.data(), 10)),
      WireError);
}

TEST(WireHeader, PatchRequestIdRewritesOnlyTheId) {
  std::vector<std::uint8_t> frame = encode_ping(7);
  std::vector<std::uint8_t> original = frame;
  patch_request_id(frame, 0xABCDEF0102030405ull);
  FrameHeader h = parse_header(frame);
  EXPECT_EQ(h.request_id, 0xABCDEF0102030405ull);
  // Everything but the 8 id bytes is untouched.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (i < 8 || i >= 16) {
      EXPECT_EQ(frame[i], original[i]) << "byte " << i;
    }
  }
}

// ---- Submit round trips ---------------------------------------------------

TEST(WireSubmit, ChainRoundTrip) {
  SubmitRequest req;
  req.tenant = 17;
  req.spec = chain_spec(40, 2);
  req.spec.deadline_micros = 1500.5;
  std::vector<std::uint8_t> frame = encode_submit(req, 9);
  FrameHeader h = parse_header(frame);
  EXPECT_EQ(h.type, FrameType::kSubmit);
  EXPECT_EQ(h.request_id, 9u);
  EXPECT_EQ(h.payload_len + kHeaderBytes, frame.size());

  SubmitRequest back = decode_submit(
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes));
  EXPECT_EQ(back.tenant, 17u);
  EXPECT_FALSE(back.has_fingerprint);
  EXPECT_EQ(back.spec.problem, svc::Problem::kBandwidth);
  EXPECT_EQ(back.spec.K, 100.0);
  EXPECT_EQ(back.spec.deadline_micros, 1500.5);
  ASSERT_TRUE(back.spec.is_chain());
  EXPECT_EQ(back.spec.chain->vertex_weight, req.spec.chain->vertex_weight);
  EXPECT_EQ(back.spec.chain->edge_weight, req.spec.chain->edge_weight);
}

TEST(WireSubmit, TreeRoundTrip) {
  SubmitRequest req;
  req.spec = tree_spec(25, 3);
  std::vector<std::uint8_t> frame = encode_submit(req, 1);
  SubmitRequest back = decode_submit(
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes));
  ASSERT_FALSE(back.spec.is_chain());
  const graph::Tree& a = *req.spec.tree;
  const graph::Tree& b = *back.spec.tree;
  ASSERT_EQ(b.n(), a.n());
  EXPECT_EQ(b.vertex_weights(), a.vertex_weights());
  ASSERT_EQ(b.edge_count(), a.edge_count());
  for (int e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(b.edge(e).u, a.edge(e).u);
    EXPECT_EQ(b.edge(e).v, a.edge(e).v);
    EXPECT_EQ(b.edge(e).weight, a.edge(e).weight);
  }
  // The decoded graph produces the same answer as the original.
  svc::JobResult ra = svc::execute_job_captured(req.spec);
  svc::JobResult rb = svc::execute_job_captured(back.spec);
  ASSERT_TRUE(ra.ok);
  ASSERT_TRUE(rb.ok);
  EXPECT_EQ(rb.objective, ra.objective);
  EXPECT_EQ(rb.cut.edges, ra.cut.edges);
}

TEST(WireSubmit, PatchFingerprintStampsFrameInPlace) {
  SubmitRequest req;
  req.spec = chain_spec(12, 4);
  std::vector<std::uint8_t> frame = encode_submit(req, 5);
  graph::Fingerprint fp = graph::chain_fingerprint(*req.spec.chain);
  patch_submit_fingerprint(frame, fp);
  SubmitRequest back = decode_submit(
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes));
  EXPECT_TRUE(back.has_fingerprint);
  EXPECT_EQ(back.fingerprint, fp);
  // The graph bytes were not disturbed.
  EXPECT_EQ(back.spec.chain->vertex_weight, req.spec.chain->vertex_weight);
}

TEST(WireSubmit, MalformedPayloadsThrowNotCrash) {
  SubmitRequest req;
  req.spec = chain_spec(10, 5);
  std::vector<std::uint8_t> frame = encode_submit(req, 0);
  std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes);

  // Truncation at every prefix length: always WireError, never UB.  The
  // last byte of a double being cut must not slip through either.
  for (std::size_t len = 0; len < payload.size(); ++len)
    EXPECT_THROW(decode_submit(payload.first(len)), WireError) << len;

  // Trailing garbage is an error too (a frame is exactly one payload).
  std::vector<std::uint8_t> padded(payload.begin(), payload.end());
  padded.push_back(0);
  EXPECT_THROW(decode_submit(padded), WireError);

  // A vertex-count prefix larger than the actual payload must not drive
  // a huge allocation: the element-size check catches it first.
  std::vector<std::uint8_t> huge(payload.begin(), payload.end());
  constexpr std::size_t kCountOffset = 24 + graph::Fingerprint::kWireBytes;
  ASSERT_LT(kCountOffset + 4, huge.size());
  for (int i = 0; i < 4; ++i) huge[kCountOffset + i] = 0xFF;
  EXPECT_THROW(decode_submit(huge), WireError);

  // An invalid graph (zero weight) fails Chain::validate inside decode.
  svc::JobSpec bad_spec = chain_spec(4, 6);
  graph::Chain bad = *bad_spec.chain;
  bad.vertex_weight[1] = 0;
  SubmitRequest bad_req;
  bad_req.spec =
      svc::JobSpec::for_chain(svc::Problem::kBottleneck, 50.0, std::move(bad));
  std::vector<std::uint8_t> bad_frame = encode_submit(bad_req, 0);
  EXPECT_THROW(
      decode_submit(
          std::span<const std::uint8_t>(bad_frame).subspan(kHeaderBytes)),
      WireError);
}

// ---- Result / reject round trips ------------------------------------------

TEST(WireResult, OkResultRoundTrips) {
  svc::JobResult r;
  r.ok = true;
  r.status = svc::JobStatus::kOk;
  r.cut.edges = {3, 7, 11};
  r.objective = 12.75;
  r.components = 4;
  r.cache_hit = true;
  r.latency_micros = 321.5;
  r.counters.oracle_calls = 99;
  r.counters.bsearch_probes = 13;
  r.counters.prime_subpaths = 5;
  r.counters.arena_bytes_peak = 4096;
  std::vector<std::uint8_t> frame = encode_result(r, 77);
  // The frame's exact bytes, pinned: header (magic, v1, kResult, no
  // flags, id 77, payload length 100), then status, the retired flag
  // byte (always 0), cache hit, reserved, components, objective, latency,
  // the seven counter words, an empty error string and the cut.
  const std::vector<std::uint8_t> pinned = {
      0x54, 0x47, 0x50, 0x57, 0x01, 0x00, 0x02, 0x00, 0x4d, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x29, 0x40,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x18, 0x74, 0x40, 0x63, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x0d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(frame, pinned);
  FrameHeader h = parse_header(frame);
  EXPECT_EQ(h.type, FrameType::kResult);
  EXPECT_EQ(h.request_id, 77u);

  auto expect_intact = [&](const std::vector<std::uint8_t>& bytes) {
    svc::JobResult back = decode_result(
        std::span<const std::uint8_t>(bytes).subspan(kHeaderBytes));
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.status, svc::JobStatus::kOk);
    EXPECT_EQ(back.cut.edges, r.cut.edges);
    EXPECT_EQ(back.objective, 12.75);
    EXPECT_EQ(back.components, 4);
    EXPECT_TRUE(back.cache_hit);
    EXPECT_EQ(back.latency_micros, 321.5);
    EXPECT_EQ(back.counters.oracle_calls, 99u);
    EXPECT_EQ(back.counters.bsearch_probes, 13u);
    EXPECT_EQ(back.counters.prime_subpaths, 5u);
    EXPECT_EQ(back.counters.arena_bytes_peak, 4096u);
    EXPECT_TRUE(back.error.empty());
  };
  expect_intact(frame);
  // A backend that still sets payload byte 1 (it once flagged a
  // degraded-mode solve) decodes to the same result.
  std::vector<std::uint8_t> flagged = frame;
  flagged[kHeaderBytes + 1] = 1;
  expect_intact(flagged);
}

TEST(WireResult, FailedResultKeepsStatusAndError) {
  svc::JobResult r =
      svc::failed_result(svc::JobStatus::kTimeout, "deadline expired");
  std::vector<std::uint8_t> frame = encode_result(r, 8);
  svc::JobResult back = decode_result(
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.status, svc::JobStatus::kTimeout);
  EXPECT_EQ(back.error, "deadline expired");
  EXPECT_TRUE(back.cut.edges.empty());
}

TEST(WireReject, RoundTripsAndMapsToResults) {
  std::vector<std::uint8_t> frame =
      encode_reject(RejectCode::kQuotaExceeded, "tenant 4 over quota", 31);
  FrameHeader h = parse_header(frame);
  EXPECT_EQ(h.type, FrameType::kReject);
  Reject rej = decode_reject(
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes));
  EXPECT_EQ(rej.code, RejectCode::kQuotaExceeded);
  EXPECT_EQ(rej.reason, "tenant 4 over quota");

  EXPECT_EQ(reject_to_result(rej).status, svc::JobStatus::kOverloaded);
  EXPECT_EQ(reject_to_result({RejectCode::kOverloaded, ""}).status,
            svc::JobStatus::kOverloaded);
  EXPECT_EQ(reject_to_result({RejectCode::kShuttingDown, ""}).status,
            svc::JobStatus::kCancelled);
  EXPECT_EQ(reject_to_result({RejectCode::kShardDown, ""}).status,
            svc::JobStatus::kInternalError);
  EXPECT_EQ(reject_to_result({RejectCode::kMalformed, ""}).status,
            svc::JobStatus::kInternalError);
}

/// One family of every type, several label sets, a histogram with and
/// without samples.
obs::MetricsRegistry every_sample_type() {
  obs::MetricsRegistry r;
  r.counter("tgp_c_total", "A counter", 42, {{"shard", "0"}});
  r.counter("tgp_c_total", "", 18446744073709551615ull, {{"shard", "1"}});
  r.gauge("tgp_g", "A gauge", -2.5);
  r.gauge("tgp_g", "", 0.1, {{"k", "v"}, {"k2", "v2"}});
  obs::LatencyHistogram h;
  h.record(0.5);
  h.record(3.25);
  h.record(1500.75);
  r.histogram("tgp_h_seconds", "A histogram", h, {{"problem", "procmin"}});
  r.histogram("tgp_h_seconds", "A histogram", obs::LatencyHistogram{});
  return r;
}

obs::MetricsRegistry round_trip(const obs::MetricsRegistry& r) {
  std::vector<std::uint8_t> frame = encode_metrics_reply(r, 2);
  EXPECT_EQ(parse_header(frame).type, FrameType::kMetricsReply);
  EXPECT_EQ(parse_header(frame).request_id, 2u);
  return decode_metrics_reply(
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes));
}

TEST(WireMetrics, MetricsAndPingRoundTrip) {
  const obs::MetricsRegistry all = every_sample_type();
  EXPECT_TRUE(round_trip(all) == all) << obs::render_prometheus(all);

  obs::MetricsRegistry escaped;
  escaped.gauge("tgp_weird", "Help with \\ and\nnewline", 1,
                {{"msg", "a \"q\" } \\ b\nc"}, {"note", "shard=9"},
                 {"utf8", "≈ µs"}, {"empty", ""}});
  EXPECT_TRUE(round_trip(escaped) == escaped);
  EXPECT_EQ(obs::render_prometheus(round_trip(escaped)),
            obs::render_prometheus(escaped));

  EXPECT_TRUE(round_trip(obs::MetricsRegistry{}).families().empty());

  EXPECT_EQ(parse_header(encode_metrics_request(1)).type,
            FrameType::kMetricsRequest);
  EXPECT_EQ(parse_header(encode_ping(3)).type, FrameType::kPing);
  EXPECT_EQ(parse_header(encode_pong(3)).type, FrameType::kPong);
  EXPECT_EQ(parse_header(encode_pong(3)).payload_len, 0u);
}

std::vector<std::uint8_t> metrics_payload(const obs::MetricsRegistry& r) {
  std::vector<std::uint8_t> frame = encode_metrics_reply(r, 1);
  return {frame.begin() + kHeaderBytes, frame.end()};
}

void expect_rejected(const std::vector<std::uint8_t>& payload,
                     const char* what) {
  EXPECT_THROW(decode_metrics_reply(payload), WireError) << what;
}

TEST(WireMetrics, MalformedRegistriesThrow) {
  const std::vector<std::uint8_t> good = metrics_payload(every_sample_type());
  // Every strict prefix is a truncated payload.
  for (std::size_t n = 0; n < good.size(); ++n)
    expect_rejected({good.begin(), good.begin() + static_cast<long>(n)},
                    "truncated");

  std::vector<std::uint8_t> bad = good;
  bad.push_back(0);
  expect_rejected(bad, "trailing byte");

  // Offsets into the first family: u32 family count, u8 type, the
  // "tgp_c_total" name and "A counter" help, u32 sample count, then the
  // first sample's u32 label count.
  const std::size_t type_at = 4;
  const std::size_t samples_at = type_at + 1 + 4 + 11 + 4 + 9;
  const std::size_t labels_at = samples_at + 4;
  auto patch_u32 = [&](std::size_t at, std::uint32_t v) {
    std::vector<std::uint8_t> p = good;
    for (int i = 0; i < 4; ++i)
      p[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    return p;
  };
  ASSERT_EQ(load_u32(good.data() + samples_at), 2u);
  ASSERT_EQ(load_u32(good.data() + labels_at), 1u);
  expect_rejected(patch_u32(0, 0xFFFFFFFFu), "family count");
  expect_rejected(patch_u32(samples_at, 0x10000000u), "sample count");
  expect_rejected(patch_u32(labels_at, 0x10000000u), "label count");
  bad = good;
  bad[type_at] = 3;
  expect_rejected(bad, "unknown type byte");

  // A histogram may not carry more than kBuckets buckets, even when the
  // payload holds them all.
  auto one_histogram = [](std::uint32_t buckets) {
    std::vector<std::uint8_t> p;
    put_u32(p, 1);  // families
    put_u8(p, static_cast<std::uint8_t>(obs::MetricType::kHistogram));
    put_u32(p, 1);
    p.push_back('h');
    put_u32(p, 0);  // help
    put_u32(p, 1);  // samples
    put_u32(p, 0);  // labels
    put_u32(p, buckets);
    for (std::uint32_t b = 0; b < buckets; ++b) put_u64(p, 1);
    put_u64(p, buckets);
    put_f64(p, 0);
    put_f64(p, 0);
    return p;
  };
  constexpr auto kBuckets =
      static_cast<std::uint32_t>(obs::LatencyHistogram::kBuckets);
  expect_rejected(one_histogram(kBuckets + 1), "too many buckets");
  EXPECT_EQ(decode_metrics_reply(one_histogram(kBuckets))
                .families()[0]
                .samples[0]
                .histogram.count,
            kBuckets);

  // A name sent under two types would make the registry ambiguous.
  obs::MetricsRegistry a, b;
  a.counter("tgp_x", "x", 1);
  b.gauge("tgp_x", "x", 1);
  std::vector<std::uint8_t> two = metrics_payload(a);
  std::vector<std::uint8_t> gauge_family = metrics_payload(b);
  two[0] = 2;
  two.insert(two.end(), gauge_family.begin() + 4, gauge_family.end());
  expect_rejected(two, "one name, two types");
}

TEST(WireReader, EveryReadPastTheEndThrows) {
  std::vector<std::uint8_t> bytes(7, 0xAB);
  WireReader r{std::span<const std::uint8_t>(bytes)};
  EXPECT_EQ(r.u32(), 0xABABABABu);
  EXPECT_THROW(r.u64(), WireError);   // 3 bytes left
  EXPECT_EQ(r.remaining(), 3u);       // a failed read consumes nothing
  EXPECT_EQ(r.u16(), 0xABABu);
  EXPECT_THROW(r.u16(), WireError);
  EXPECT_EQ(r.u8(), 0xABu);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), WireError);
}

TEST(WireReader, F64ArrayIsExactOnOddAlignment) {
  std::vector<double> values = {1.5, -2.25, 1e308, 5e-324, 0.0};
  std::vector<std::uint8_t> bytes;
  put_u8(bytes, 0);  // force the array to start at an odd offset
  for (double v : values) put_f64(bytes, v);
  WireReader r{std::span<const std::uint8_t>(bytes)};
  r.u8();
  std::vector<double> back;
  r.f64_array(back, values.size());
  EXPECT_EQ(back, values);
  EXPECT_TRUE(r.done());
}

// ---- FrameBuffer reassembly -----------------------------------------------

TEST(FrameBuffer, ReassemblesByteAtATime) {
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> ping = encode_ping(1);
  std::vector<std::uint8_t> reject = encode_reject(RejectCode::kOverloaded,
                                                   "busy", 2);
  stream.insert(stream.end(), ping.begin(), ping.end());
  stream.insert(stream.end(), reject.begin(), reject.end());

  FrameBuffer fb;
  FrameHeader h;
  std::vector<std::uint8_t> payload;
  int got = 0;
  for (std::uint8_t b : stream) {
    fb.append(&b, 1);
    while (fb.next(h, payload)) {
      ++got;
      if (got == 1) {
        EXPECT_EQ(h.type, FrameType::kPing);
      }
      if (got == 2) {
        EXPECT_EQ(h.type, FrameType::kReject);
        EXPECT_EQ(decode_reject(payload).reason, "busy");
      }
    }
  }
  EXPECT_EQ(got, 2);
  EXPECT_EQ(fb.buffered(), 0u);
}

TEST(FrameBuffer, OversizedLengthPrefixThrows) {
  FrameBuffer fb(/*max_payload=*/64);
  FrameHeader h;
  h.type = FrameType::kMetricsReply;
  h.payload_len = 65;
  std::vector<std::uint8_t> bytes;
  put_header(bytes, h);
  fb.append(bytes.data(), bytes.size());
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(fb.next(h, payload), WireError);
}

TEST(FrameBuffer, BadMagicThrows) {
  FrameBuffer fb;
  std::vector<std::uint8_t> junk(kHeaderBytes, 0x5A);
  fb.append(junk.data(), junk.size());
  FrameHeader h;
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(fb.next(h, payload), WireError);
}

// ---- Trace-context block (protocol v2) ------------------------------------

obs::TraceContext sampled_ctx() {
  obs::TraceContext ctx;
  ctx.trace_hi = 0x0123456789ABCDEFull;
  ctx.trace_lo = 0xFEDCBA9876543210ull;
  ctx.parent_span = 0xA5A5A5A5A5A5A5A5ull;
  ctx.sampled = true;
  return ctx;
}

TEST(WireTrace, AppendSplitRoundTripsOnSubmit) {
  SubmitRequest req;
  req.tenant = 9;
  req.spec = chain_spec(5, 3);
  std::vector<std::uint8_t> frame = encode_submit(req, 77);
  const std::size_t v1_size = frame.size();

  append_trace_context(frame, sampled_ctx());
  EXPECT_EQ(frame.size(), v1_size + kTraceContextBytes);

  FrameHeader h = parse_header(frame);
  EXPECT_EQ(h.version, kVersion);
  EXPECT_NE(h.flags & kFrameHasTrace, 0);
  EXPECT_EQ(h.payload_len, v1_size - kHeaderBytes + kTraceContextBytes);

  std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes);
  std::optional<obs::TraceContext> back = split_trace_context(h, payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->trace_hi, sampled_ctx().trace_hi);
  EXPECT_EQ(back->trace_lo, sampled_ctx().trace_lo);
  EXPECT_EQ(back->parent_span, sampled_ctx().parent_span);
  EXPECT_TRUE(back->sampled);

  // The remaining payload is the untouched v1 submit.
  SubmitRequest decoded = decode_submit(payload);
  EXPECT_EQ(decoded.tenant, 9u);
}

TEST(WireTrace, UnsampledContextLeavesTheFrameAtV1) {
  SubmitRequest unreq;
  unreq.spec = chain_spec(3, 1);
  std::vector<std::uint8_t> frame = encode_submit(unreq, 1);
  const std::vector<std::uint8_t> original = frame;
  append_trace_context(frame, obs::TraceContext{});
  EXPECT_EQ(frame, original);  // byte-identical: tracing off = v1 fleet
  FrameHeader h = parse_header(frame);
  EXPECT_EQ(h.version, kMinVersion);
  EXPECT_EQ(h.flags & kFrameHasTrace, 0);
}

TEST(WireTrace, SplitWithoutFlagIsNulloptAndLeavesPayloadAlone) {
  SubmitRequest nfreq;
  nfreq.spec = chain_spec(3, 2);
  std::vector<std::uint8_t> frame = encode_submit(nfreq, 2);
  FrameHeader h = parse_header(frame);
  std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes);
  const std::size_t before = payload.size();
  EXPECT_FALSE(split_trace_context(h, payload).has_value());
  EXPECT_EQ(payload.size(), before);
}

TEST(WireTrace, V1OffsetsSurviveAppendSoRouterPatchesStillLand) {
  SubmitRequest req;
  req.spec = chain_spec(4, 8);
  std::vector<std::uint8_t> frame = encode_submit(req, 5);
  append_trace_context(frame, sampled_ctx());

  // The router's in-place patches target v1 offsets; the suffix block
  // must not have shifted them.
  patch_request_id(frame, 0x1122334455667788ull);
  graph::Fingerprint fp{0x1111111111111111ull, 0x2222222222222222ull};
  patch_submit_fingerprint(frame, fp);

  FrameHeader h = parse_header(frame);
  EXPECT_EQ(h.request_id, 0x1122334455667788ull);
  std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes);
  std::optional<obs::TraceContext> ctx = split_trace_context(h, payload);
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(ctx->trace_lo, sampled_ctx().trace_lo);
  SubmitRequest back = decode_submit(payload);
  EXPECT_TRUE(back.has_fingerprint);
  EXPECT_EQ(back.fingerprint, fp);
}

TEST(WireTrace, PeekReadsContextWithoutConsumingTheFrame) {
  SubmitRequest pkreq;
  pkreq.spec = chain_spec(3, 3);
  std::vector<std::uint8_t> frame = encode_submit(pkreq, 3);
  EXPECT_FALSE(peek_trace_context(frame).sampled);
  append_trace_context(frame, sampled_ctx());
  const std::vector<std::uint8_t> before = frame;
  obs::TraceContext ctx = peek_trace_context(frame);
  EXPECT_TRUE(ctx.sampled);
  EXPECT_EQ(ctx.trace_hi, sampled_ctx().trace_hi);
  EXPECT_EQ(frame, before);
}

TEST(WireTrace, FlagSetButPayloadTooShortThrows) {
  // A ping has an empty payload; forging the trace flag on it must not
  // read out of bounds.
  std::vector<std::uint8_t> frame = encode_ping(4);
  frame[4] = 2;   // version word (low byte)
  frame[7] |= kFrameHasTrace;
  FrameHeader h = parse_header(frame);
  std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes);
  EXPECT_THROW(split_trace_context(h, payload), WireError);
}

TEST(WireTrace, ResultFramesCarryContextToo) {
  svc::JobResult res;
  res.ok = true;
  res.status = svc::JobStatus::kOk;
  res.objective = 12.5;
  std::vector<std::uint8_t> frame = encode_result(res, 11);
  append_trace_context(frame, sampled_ctx());
  FrameHeader h = parse_header(frame);
  std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(frame).subspan(kHeaderBytes);
  ASSERT_TRUE(split_trace_context(h, payload).has_value());
  svc::JobResult back = decode_result(payload);
  EXPECT_EQ(back.status, svc::JobStatus::kOk);
  EXPECT_EQ(back.objective, 12.5);
}

TEST(WireTrace, PongCarriesTheResponderWallClock) {
  std::vector<std::uint8_t> with = encode_pong(6, 1234567890123ll);
  FrameHeader h = parse_header(with);
  EXPECT_EQ(h.type, FrameType::kPong);
  std::optional<std::int64_t> wall = decode_pong(
      std::span<const std::uint8_t>(with).subspan(kHeaderBytes));
  ASSERT_TRUE(wall.has_value());
  EXPECT_EQ(*wall, 1234567890123ll);
  // A bare v1 pong decodes to "no clock" rather than throwing.
  std::vector<std::uint8_t> bare = encode_pong(6);
  EXPECT_FALSE(decode_pong(std::span<const std::uint8_t>(bare).subspan(
                               kHeaderBytes))
                   .has_value());
}

}  // namespace
}  // namespace tgp::net
