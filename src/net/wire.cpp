#include "net/wire.hpp"

#include <bit>
#include <limits>
#include <utility>

#include "dur/crc32c.hpp"
#include "graph/chain.hpp"
#include "graph/tree.hpp"
#include "obs/counters.hpp"

namespace tgp::net {

namespace {

constexpr std::uint8_t kKindChain = 0;
constexpr std::uint8_t kKindTree = 1;

// The counters block of a result payload: a fixed field list, so both
// ends agree on the byte count without a schema.
constexpr std::size_t kCounterFields = 7;

void put_counters(std::vector<std::uint8_t>& b, const obs::SolveCounters& c) {
  put_u64(b, c.oracle_calls);
  put_u64(b, c.bsearch_probes);
  put_u64(b, c.gallop_probes);
  put_u64(b, c.prime_subpaths);
  put_u64(b, c.nonredundant_edges);
  put_u64(b, c.temps_peak_rows);
  put_u64(b, c.arena_bytes_peak);
}

obs::SolveCounters get_counters(WireReader& r) {
  obs::SolveCounters c;
  c.oracle_calls = r.u64();
  c.bsearch_probes = r.u64();
  c.gallop_probes = r.u64();
  c.prime_subpaths = r.u64();
  c.nonredundant_edges = r.u64();
  c.temps_peak_rows = r.u64();
  c.arena_bytes_peak = r.u64();
  static_assert(kCounterFields == 7, "keep the field list in sync");
  return c;
}

void put_f64_array(std::vector<std::uint8_t>& b, const std::vector<double>& v) {
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t bytes = v.size() * sizeof(double);
    const std::size_t at = b.size();
    b.resize(at + bytes);
    std::memcpy(b.data() + at, v.data(), bytes);
  } else {
    for (double x : v) put_f64(b, x);
  }
}

std::uint32_t checked_count(WireReader& r, std::size_t elem_bytes,
                            const char* what) {
  std::uint32_t count = r.u32();
  // A hostile length prefix may promise more elements than the payload
  // can hold; reject before any allocation sized from it.
  if (static_cast<std::size_t>(count) * elem_bytes > r.remaining())
    throw WireError(std::string(what) + " count " + std::to_string(count) +
                    " exceeds the payload");
  return count;
}

/// A u32 length prefix, then the bytes.
void put_str(std::vector<std::uint8_t>& b, std::string_view s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

std::string get_str(WireReader& r, const char* what) {
  return r.str(checked_count(r, 1, what));
}

}  // namespace

void WireReader::f64_array(std::vector<double>& out, std::size_t n) {
  std::span<const std::uint8_t> raw = bytes(n * sizeof(double));
  out.resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), raw.data(), raw.size());
  } else {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = load_f64(raw.data() + i * sizeof(double));
  }
}

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kSubmit: return "submit";
    case FrameType::kResult: return "result";
    case FrameType::kReject: return "reject";
    case FrameType::kMetricsRequest: return "metrics_request";
    case FrameType::kMetricsReply: return "metrics_reply";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
  }
  return "unknown";
}

bool known_frame_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kSubmit) &&
         t <= static_cast<std::uint8_t>(FrameType::kPong);
}

const char* reject_code_name(RejectCode c) {
  switch (c) {
    case RejectCode::kMalformed: return "malformed";
    case RejectCode::kUnsupportedVersion: return "unsupported_version";
    case RejectCode::kQuotaExceeded: return "quota_exceeded";
    case RejectCode::kOverloaded: return "overloaded";
    case RejectCode::kShuttingDown: return "shutting_down";
    case RejectCode::kShardDown: return "shard_down";
    case RejectCode::kInternal: return "internal";
  }
  return "unknown";
}

void put_header(std::vector<std::uint8_t>& out, const FrameHeader& h) {
  put_u32(out, h.magic);
  put_u16(out, h.version);
  put_u8(out, static_cast<std::uint8_t>(h.type));
  put_u8(out, h.flags);
  put_u64(out, h.request_id);
  put_u32(out, h.payload_len);
}

FrameHeader parse_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes)
    throw WireError("short header: " + std::to_string(bytes.size()) +
                    " bytes");
  FrameHeader h;
  h.magic = load_u32(bytes.data());
  if (h.magic != kMagic) throw WireError("bad magic");
  h.version = load_u16(bytes.data() + 4);
  if (h.version < kMinVersion || h.version > kVersion)
    throw WireError("unsupported protocol version " +
                    std::to_string(h.version));
  std::uint8_t type = bytes[6];
  if (!known_frame_type(type))
    throw WireError("unknown frame type " + std::to_string(type));
  h.type = static_cast<FrameType>(type);
  h.flags = bytes[7];
  h.request_id = load_u64(bytes.data() + 8);
  h.payload_len = load_u32(bytes.data() + 16);
  return h;
}

void patch_request_id(std::span<std::uint8_t> frame, std::uint64_t id) {
  if (frame.size() < kHeaderBytes) throw WireError("frame too short to patch");
  for (int i = 0; i < 8; ++i)
    frame[8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(id >> (8 * i));
}

void append_trace_context(std::vector<std::uint8_t>& frame,
                          const obs::TraceContext& ctx) {
  if (!ctx.sampled) return;
  if (frame.size() < kHeaderBytes)
    throw WireError("frame too short to carry a trace context");
  if ((frame[7] & kFrameHasTrace) != 0)
    throw WireError("frame already carries a trace context");
  put_u64(frame, ctx.trace_hi);
  put_u64(frame, ctx.trace_lo);
  put_u64(frame, ctx.parent_span);
  put_u8(frame, 1);  // sampled
  const std::size_t payload = frame.size() - kHeaderBytes;
  if (payload > std::numeric_limits<std::uint32_t>::max())
    throw WireError("payload exceeds 4 GiB");
  const std::uint32_t len = static_cast<std::uint32_t>(payload);
  for (int i = 0; i < 4; ++i)
    frame[16 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  frame[7] |= kFrameHasTrace;
  // Promote the header: trace-context blocks are a v2 feature.
  frame[4] = 2;
  frame[5] = 0;
}

std::optional<obs::TraceContext> split_trace_context(
    const FrameHeader& header, std::span<const std::uint8_t>& payload) {
  if ((header.flags & kFrameHasTrace) == 0) return std::nullopt;
  if (payload.size() < kTraceContextBytes)
    throw WireError("trace-context flag set on a " +
                    std::to_string(payload.size()) + " byte payload");
  const std::uint8_t* p =
      payload.data() + payload.size() - kTraceContextBytes;
  obs::TraceContext ctx;
  ctx.trace_hi = load_u64(p);
  ctx.trace_lo = load_u64(p + 8);
  ctx.parent_span = load_u64(p + 16);
  ctx.sampled = p[24] != 0;
  payload = payload.first(payload.size() - kTraceContextBytes);
  return ctx;
}

obs::TraceContext peek_trace_context(std::span<const std::uint8_t> frame) {
  if (frame.size() < kHeaderBytes) return {};
  if ((frame[7] & kFrameHasTrace) == 0) return {};
  std::span<const std::uint8_t> payload = frame.subspan(kHeaderBytes);
  // A checksum suffix sits *after* the trace block; skip it (without
  // verifying — peeking must not fail on bytes a later hop will check).
  if ((frame[7] & kFrameHasChecksum) != 0) {
    if (payload.size() < kFrameChecksumBytes) return {};
    payload = payload.first(payload.size() - kFrameChecksumBytes);
  }
  if (payload.size() < kTraceContextBytes) return {};
  FrameHeader h;
  h.flags = static_cast<std::uint8_t>(frame[7] &
                                      static_cast<std::uint8_t>(~kFrameHasChecksum));
  std::optional<obs::TraceContext> ctx = split_trace_context(h, payload);
  return ctx ? *ctx : obs::TraceContext{};
}

void append_frame_checksum(std::vector<std::uint8_t>& frame) {
  if (frame.size() < kHeaderBytes)
    throw WireError("frame too short to carry a checksum");
  if ((frame[7] & kFrameHasChecksum) != 0)
    throw WireError("frame already carries a checksum");
  const std::uint32_t crc =
      dur::crc32c(frame.data() + kHeaderBytes, frame.size() - kHeaderBytes);
  put_u32(frame, crc);
  const std::size_t payload = frame.size() - kHeaderBytes;
  if (payload > std::numeric_limits<std::uint32_t>::max())
    throw WireError("payload exceeds 4 GiB");
  const std::uint32_t len = static_cast<std::uint32_t>(payload);
  for (int i = 0; i < 4; ++i)
    frame[16 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  frame[7] |= kFrameHasChecksum;
  // Promote the header: checksum suffixes are a v2 feature.
  frame[4] = 2;
  frame[5] = 0;
}

bool split_frame_checksum(const FrameHeader& header,
                          std::span<const std::uint8_t>& payload) {
  if ((header.flags & kFrameHasChecksum) == 0) return true;
  if (payload.size() < kFrameChecksumBytes)
    throw WireError("checksum flag set on a " +
                    std::to_string(payload.size()) + " byte payload");
  const std::size_t body = payload.size() - kFrameChecksumBytes;
  const std::uint32_t want = load_u32(payload.data() + body);
  if (dur::crc32c(payload.data(), body) != want) return false;
  payload = payload.first(body);
  return true;
}

namespace {

/// Build a frame around an already-encoded payload appended by `fill`.
template <typename Fill>
std::vector<std::uint8_t> make_frame(FrameType type, std::uint64_t request_id,
                                     Fill&& fill) {
  std::vector<std::uint8_t> out;
  FrameHeader h;
  h.type = type;
  h.request_id = request_id;
  put_header(out, h);
  fill(out);
  const std::size_t payload = out.size() - kHeaderBytes;
  if (payload > std::numeric_limits<std::uint32_t>::max())
    throw WireError("payload exceeds 4 GiB");
  std::uint32_t len = static_cast<std::uint32_t>(payload);
  for (int i = 0; i < 4; ++i)
    out[16 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_submit(const SubmitRequest& req,
                                        std::uint64_t request_id) {
  const svc::JobSpec& spec = req.spec;
  if (!spec.chain && !spec.tree)
    throw WireError("submit spec has no graph");
  return make_frame(FrameType::kSubmit, request_id, [&](auto& out) {
    put_u32(out, req.tenant);
    put_u8(out, static_cast<std::uint8_t>(spec.problem));
    put_u8(out, spec.is_chain() ? kKindChain : kKindTree);
    put_u16(out, req.has_fingerprint ? kSubmitHasFingerprint : 0);
    put_f64(out, spec.K);
    put_f64(out, spec.deadline_micros);
    unsigned char fp[graph::Fingerprint::kWireBytes] = {};
    if (req.has_fingerprint) req.fingerprint.store_le(fp);
    out.insert(out.end(), fp, fp + sizeof fp);
    if (spec.is_chain()) {
      const graph::Chain& c = *spec.chain;
      put_u32(out, static_cast<std::uint32_t>(c.n()));
      put_f64_array(out, c.vertex_weight);
      put_f64_array(out, c.edge_weight);
    } else {
      const graph::Tree& t = *spec.tree;
      put_u32(out, static_cast<std::uint32_t>(t.n()));
      put_f64_array(out, t.vertex_weights());
      for (const graph::TreeEdge& e : t.edges()) {
        put_u32(out, static_cast<std::uint32_t>(e.u));
        put_u32(out, static_cast<std::uint32_t>(e.v));
        put_f64(out, e.weight);
      }
    }
  });
}

SubmitRequest decode_submit(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  SubmitRequest req;
  req.tenant = r.u32();
  std::uint8_t problem = r.u8();
  if (problem >= svc::kProblemCount)
    throw WireError("unknown problem id " + std::to_string(problem));
  std::uint8_t kind = r.u8();
  std::uint16_t flags = r.u16();
  double K = r.f64();
  double deadline = r.f64();
  std::span<const std::uint8_t> fp =
      r.bytes(graph::Fingerprint::kWireBytes);
  if ((flags & kSubmitHasFingerprint) != 0) {
    req.has_fingerprint = true;
    req.fingerprint = graph::Fingerprint::load_le(fp.data());
  }
  try {
    if (kind == kKindChain) {
      std::uint32_t n = checked_count(r, sizeof(double), "chain vertex");
      if (n == 0) throw WireError("empty chain");
      graph::Chain c;
      r.f64_array(c.vertex_weight, n);
      r.f64_array(c.edge_weight, n - 1);
      c.validate();
      req.spec = svc::JobSpec::for_chain(static_cast<svc::Problem>(problem),
                                         K, std::move(c));
    } else if (kind == kKindTree) {
      std::uint32_t n = checked_count(r, sizeof(double), "tree vertex");
      if (n == 0) throw WireError("empty tree");
      std::vector<double> vw;
      r.f64_array(vw, n);
      std::vector<graph::TreeEdge> edges;
      edges.reserve(n - 1);
      for (std::uint32_t i = 0; i + 1 < n; ++i) {
        graph::TreeEdge e;
        e.u = static_cast<int>(r.u32());
        e.v = static_cast<int>(r.u32());
        e.weight = r.f64();
        edges.push_back(e);
      }
      req.spec = svc::JobSpec::for_tree(
          static_cast<svc::Problem>(problem), K,
          graph::Tree::from_edges(std::move(vw), std::move(edges)));
    } else {
      throw WireError("unknown graph kind " + std::to_string(kind));
    }
  } catch (const WireError&) {
    throw;
  } catch (const std::exception& e) {
    // Graph validation failures (negative weights, disconnected edge
    // lists, ...) are the wire's problem too: the bytes do not encode a
    // well-formed graph.
    throw WireError(std::string("invalid graph payload: ") + e.what());
  }
  if (!r.done())
    throw WireError(std::to_string(r.remaining()) +
                    " trailing bytes after the submit payload");
  req.spec.deadline_micros = deadline;
  return req;
}

void patch_submit_fingerprint(std::span<std::uint8_t> frame,
                              const graph::Fingerprint& fp) {
  constexpr std::size_t kNeed = kHeaderBytes + kSubmitFingerprintOffset +
                                graph::Fingerprint::kWireBytes;
  if (frame.size() < kNeed)
    throw WireError("submit frame too short to patch a fingerprint");
  std::size_t flags_at = kHeaderBytes + kSubmitFlagsOffset;
  std::uint16_t flags = load_u16(frame.data() + flags_at);
  flags |= kSubmitHasFingerprint;
  frame[flags_at] = static_cast<std::uint8_t>(flags);
  frame[flags_at + 1] = static_cast<std::uint8_t>(flags >> 8);
  unsigned char bytes[graph::Fingerprint::kWireBytes];
  fp.store_le(bytes);
  std::memcpy(frame.data() + kHeaderBytes + kSubmitFingerprintOffset, bytes,
              sizeof bytes);
  if ((frame[7] & kFrameHasChecksum) != 0) {
    // The fingerprint patch is the one in-payload mutation the router
    // makes; refresh the suffix so the backend's verification passes.
    if (frame.size() < kHeaderBytes + kFrameChecksumBytes)
      throw WireError("checksum flag set on a frame too short to hold it");
    const std::size_t body =
        frame.size() - kHeaderBytes - kFrameChecksumBytes;
    const std::uint32_t crc = dur::crc32c(frame.data() + kHeaderBytes, body);
    for (int i = 0; i < 4; ++i)
      frame[kHeaderBytes + body + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

std::vector<std::uint8_t> encode_result(const svc::JobResult& r,
                                        std::uint64_t request_id) {
  return make_frame(FrameType::kResult, request_id, [&](auto& out) {
    put_u8(out, static_cast<std::uint8_t>(r.status));
    // Retired (it flagged a degraded-mode solve): written as 0 and
    // skipped on read, so every result frame keeps its layout.
    put_u8(out, 0);
    put_u8(out, r.cache_hit ? 1 : 0);
    put_u8(out, 0);  // reserved
    put_u32(out, static_cast<std::uint32_t>(r.components));
    put_f64(out, r.objective);
    put_f64(out, r.latency_micros);
    put_counters(out, r.counters);
    put_str(out, r.error);
    put_u32(out, static_cast<std::uint32_t>(r.cut.edges.size()));
    for (int e : r.cut.edges)
      put_u32(out, static_cast<std::uint32_t>(e));
  });
}

svc::JobResult decode_result(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  svc::JobResult out;
  std::uint8_t status = r.u8();
  if (status >= svc::kJobStatusCount)
    throw WireError("unknown job status " + std::to_string(status));
  out.status = static_cast<svc::JobStatus>(status);
  out.ok = out.status == svc::JobStatus::kOk;
  r.u8();  // retired degraded flag
  out.cache_hit = r.u8() != 0;
  r.u8();  // reserved
  out.components = static_cast<int>(r.u32());
  out.objective = r.f64();
  out.latency_micros = r.f64();
  out.counters = get_counters(r);
  out.error = get_str(r, "error byte");
  std::uint32_t cut = checked_count(r, sizeof(std::uint32_t), "cut edge");
  out.cut.edges.reserve(cut);
  for (std::uint32_t i = 0; i < cut; ++i)
    out.cut.edges.push_back(static_cast<int>(r.u32()));
  if (!r.done())
    throw WireError("trailing bytes after the result payload");
  return out;
}

std::vector<std::uint8_t> encode_reject(RejectCode code,
                                        std::string_view reason,
                                        std::uint64_t request_id) {
  return make_frame(FrameType::kReject, request_id, [&](auto& out) {
    put_u8(out, static_cast<std::uint8_t>(code));
    put_str(out, reason);
  });
}

Reject decode_reject(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  Reject rej;
  std::uint8_t code = r.u8();
  if (code < static_cast<std::uint8_t>(RejectCode::kMalformed) ||
      code > static_cast<std::uint8_t>(RejectCode::kInternal))
    throw WireError("unknown reject code " + std::to_string(code));
  rej.code = static_cast<RejectCode>(code);
  rej.reason = get_str(r, "reason byte");
  if (!r.done()) throw WireError("trailing bytes after the reject payload");
  return rej;
}

svc::JobResult reject_to_result(const Reject& rej) {
  svc::JobStatus status;
  switch (rej.code) {
    case RejectCode::kQuotaExceeded:
    case RejectCode::kOverloaded:
      status = svc::JobStatus::kOverloaded;
      break;
    case RejectCode::kShuttingDown:
      status = svc::JobStatus::kCancelled;
      break;
    default:
      status = svc::JobStatus::kInternalError;
      break;
  }
  return svc::failed_result(status, rej.reason);
}

std::vector<std::uint8_t> encode_metrics_request(std::uint64_t request_id) {
  return make_frame(FrameType::kMetricsRequest, request_id, [](auto&) {});
}

std::vector<std::uint8_t> encode_metrics_reply(
    const obs::MetricsRegistry& registry, std::uint64_t request_id) {
  return make_frame(FrameType::kMetricsReply, request_id, [&](auto& out) {
    put_u32(out, static_cast<std::uint32_t>(registry.families().size()));
    for (const obs::MetricsRegistry::Family& f : registry.families()) {
      put_u8(out, static_cast<std::uint8_t>(f.type));
      put_str(out, f.name);
      put_str(out, f.help);
      put_u32(out, static_cast<std::uint32_t>(f.samples.size()));
      for (const obs::MetricsRegistry::Sample& s : f.samples) {
        put_u32(out, static_cast<std::uint32_t>(s.labels.size()));
        for (const auto& [key, value] : s.labels) {
          put_str(out, key);
          put_str(out, value);
        }
        switch (f.type) {
          case obs::MetricType::kCounter: put_u64(out, s.counter); break;
          case obs::MetricType::kGauge: put_f64(out, s.gauge); break;
          case obs::MetricType::kHistogram: {
            const obs::LatencyHistogram& h = s.histogram;
            std::size_t used = h.counts.size();
            while (used > 0 && h.counts[used - 1] == 0) --used;
            put_u32(out, static_cast<std::uint32_t>(used));
            for (std::size_t b = 0; b < used; ++b) put_u64(out, h.counts[b]);
            put_u64(out, h.count);
            put_f64(out, h.total_micros);
            put_f64(out, h.max_micros);
            break;
          }
        }
      }
    }
  });
}

obs::MetricsRegistry decode_metrics_reply(
    std::span<const std::uint8_t> payload) {
  // Minimum wire bytes per element, for checked_count: a family is a
  // type byte plus three u32 prefixes, a sample a label count plus an
  // 8-byte value, a label two length prefixes.
  constexpr std::size_t kFamilyBytes = 13;
  constexpr std::size_t kSampleBytes = 12;
  constexpr std::size_t kLabelBytes = 8;
  WireReader r(payload);
  obs::MetricsRegistry registry;
  const std::uint32_t families = checked_count(r, kFamilyBytes, "family");
  for (std::uint32_t i = 0; i < families; ++i) {
    const std::uint8_t type_byte = r.u8();
    if (type_byte > static_cast<std::uint8_t>(obs::MetricType::kHistogram))
      throw WireError("unknown metric type " + std::to_string(type_byte));
    const auto type = static_cast<obs::MetricType>(type_byte);
    const std::string name = get_str(r, "metric name byte");
    const std::string help = get_str(r, "metric help byte");
    const obs::MetricsRegistry::Family* known = registry.family(name);
    if (known != nullptr && known->type != type)
      throw WireError("metric " + name + " sent under two types");
    const std::uint32_t samples = checked_count(r, kSampleBytes, "sample");
    for (std::uint32_t j = 0; j < samples; ++j) {
      obs::Labels labels(checked_count(r, kLabelBytes, "label"));
      for (auto& [key, value] : labels) {
        key = get_str(r, "label key byte");
        value = get_str(r, "label value byte");
      }
      obs::MetricsRegistry::Sample& s =
          registry.record(name, help, type, std::move(labels));
      switch (type) {
        case obs::MetricType::kCounter: s.counter = r.u64(); break;
        case obs::MetricType::kGauge: s.gauge = r.f64(); break;
        case obs::MetricType::kHistogram: {
          obs::LatencyHistogram& h = s.histogram;
          const std::uint32_t used = checked_count(r, 8, "histogram bucket");
          if (used > h.counts.size())
            throw WireError("histogram with " + std::to_string(used) +
                            " buckets exceeds " +
                            std::to_string(h.counts.size()));
          for (std::uint32_t b = 0; b < used; ++b) h.counts[b] = r.u64();
          h.count = r.u64();
          h.total_micros = r.f64();
          h.max_micros = r.f64();
          break;
        }
      }
    }
  }
  if (!r.done()) throw WireError("trailing bytes after the metrics payload");
  return registry;
}

std::vector<std::uint8_t> encode_ping(std::uint64_t request_id) {
  return make_frame(FrameType::kPing, request_id, [](auto&) {});
}

std::vector<std::uint8_t> encode_pong(std::uint64_t request_id) {
  return make_frame(FrameType::kPong, request_id, [](auto&) {});
}

std::vector<std::uint8_t> encode_pong(std::uint64_t request_id,
                                      std::int64_t wall_us) {
  return make_frame(FrameType::kPong, request_id, [&](auto& out) {
    put_u64(out, static_cast<std::uint64_t>(wall_us));
  });
}

std::optional<std::int64_t> decode_pong(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < 8) return std::nullopt;
  return static_cast<std::int64_t>(load_u64(payload.data()));
}

void FrameBuffer::append(const std::uint8_t* data, std::size_t n) {
  // Compact once the consumed prefix dominates, so long-lived
  // connections do not grow the buffer without bound.
  if (off_ > 0 && (off_ == buf_.size() || off_ > (1u << 20))) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameBuffer::next(FrameHeader& header, std::vector<std::uint8_t>& payload) {
  if (buffered() < kHeaderBytes) return false;
  std::span<const std::uint8_t> view(buf_.data() + off_, buf_.size() - off_);
  FrameHeader h = parse_header(view);
  if (h.payload_len > max_payload_)
    throw WireError("oversized frame: " + std::to_string(h.payload_len) +
                    " byte payload exceeds the " +
                    std::to_string(max_payload_) + " byte cap");
  if (view.size() < kHeaderBytes + h.payload_len) return false;
  header = h;
  payload.assign(view.begin() + kHeaderBytes,
                 view.begin() + kHeaderBytes + h.payload_len);
  off_ += kHeaderBytes + h.payload_len;
  return true;
}

}  // namespace tgp::net
