// The tgp binary wire protocol.
//
// Every message is one length-prefixed frame with a fixed 20-byte header
// followed by a typed payload.  All multi-byte integers — and the IEEE
// bit patterns of all doubles — travel in explicit little-endian byte
// order, so a router and a backend on different architectures parse the
// same bytes identically (the 128-bit graph fingerprint included; see
// graph::Fingerprint::store_le).
//
//   offset  size  field
//        0     4  magic   "TGPW" (0x57504754 read as LE u32)
//        4     2  version (kMinVersion..kVersion accepted; frames are
//                 emitted as v1 unless they use a v2 feature)
//        6     1  frame type (FrameType)
//        7     1  flags (kFrameHasTrace: payload carries a trace-context
//                 block; kFrameHasChecksum: payload ends with a CRC32C
//                 suffix; other bits reserved 0)
//        8     8  request id — echoed verbatim in the response frame
//       16     4  payload length in bytes
//       20     …  payload
//
// Frame types and payloads:
//
//   kSubmit         one partition job: tenant, problem, K, deadline, an
//                   optional router-filled canonical fingerprint, and
//                   the graph itself (chain weights, or tree vertex
//                   weights + edge list).
//   kResult         the completed JobResult: status, objective, cut,
//                   cache-hit flag, solver counters.
//   kReject         the request never reached the service: quota, frame
//                   too large, bad version, shutdown.  Carries a
//                   RejectCode and a reason string.
//   kMetricsRequest / kMetricsReply
//                   the server's metrics registry as typed samples
//                   (families, label sets, counter/gauge/histogram
//                   values); plain `GET /metrics` on the same port
//                   answers with its Prometheus text.
//   kPing / kPong   liveness probe, empty payloads.
//
// Decoding is defensive: every read is bounds-checked and malformed
// payloads throw WireError, which the server layer maps to a kReject
// frame (payload errors) or a connection close (unparseable headers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <optional>

#include "graph/fingerprint.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "svc/job.hpp"

namespace tgp::net {

constexpr std::uint32_t kMagic = 0x57504754;  // "TGPW" as a LE u32
/// Current protocol version.  v2 added the optional trace-context block
/// (append_trace_context); frames that do not carry one are still
/// emitted as v1, so a fleet with tracing off is byte-identical to the
/// v1 fleet and old peers interoperate.  Decoders accept kMinVersion..
/// kVersion.
constexpr std::uint16_t kVersion = 2;
constexpr std::uint16_t kMinVersion = 1;
constexpr std::size_t kHeaderBytes = 20;
/// Default cap on a single frame's payload; the server rejects larger
/// length prefixes without buffering them (~8M-vertex chains fit).
constexpr std::uint32_t kDefaultMaxPayload = 256u << 20;

enum class FrameType : std::uint8_t {
  kSubmit = 1,
  kResult = 2,
  kReject = 3,
  kMetricsRequest = 4,
  kMetricsReply = 5,
  kPing = 6,
  kPong = 7,
};

const char* frame_type_name(FrameType t);
bool known_frame_type(std::uint8_t t);

/// Why a kReject frame was sent instead of a kResult.
enum class RejectCode : std::uint8_t {
  kMalformed = 1,           ///< payload failed to decode
  kUnsupportedVersion = 2,  ///< header version outside [kMinVersion, kVersion]
  kQuotaExceeded = 3,       ///< tenant over its admission quota (router)
  kOverloaded = 4,          ///< pending queue full, shed before service
  kShuttingDown = 5,        ///< server is draining
  kShardDown = 6,           ///< no shard in the fleet is serving (router)
  kInternal = 7,            ///< anything else
};

const char* reject_code_name(RejectCode c);

struct WireError : std::runtime_error {
  /// kProtocol — the bytes are wrong (malformed frame, unexpected type);
  /// kTimeout — the bytes never came (a deadline expired waiting on the
  /// peer).  Timeouts are recoverable by reconnect + resubmit; protocol
  /// errors are not.
  enum Kind { kProtocol, kTimeout };

  explicit WireError(const std::string& what, Kind kind = kProtocol)
      : std::runtime_error(what), kind(kind) {}

  Kind kind = kProtocol;
};

/// Header flag bits (byte 7).
/// The payload's last kTraceContextBytes are a trace-context block —
/// see append_trace_context / split_trace_context.  Only ever set on
/// version >= 2 frames.
constexpr std::uint8_t kFrameHasTrace = 1u << 0;
/// The payload's last kFrameChecksumBytes are a CRC32C of every payload
/// byte before them — see append_frame_checksum / split_frame_checksum.
/// Appended *after* the trace block (suffixes strip in LIFO order), and
/// only ever set on version >= 2 frames; a frame without it is
/// byte-identical to a v1 frame, so checksumming is negotiated per
/// frame exactly like tracing.
constexpr std::uint8_t kFrameHasChecksum = 1u << 1;

/// Wire size of a trace-context block: trace id (2×u64) + parent span id
/// (u64) + sampled flag (u8).
constexpr std::size_t kTraceContextBytes = 25;
/// Wire size of the frame-checksum suffix (one u32).
constexpr std::size_t kFrameChecksumBytes = 4;

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = 1;  // frames carry v1 unless a v2 field is used
  FrameType type = FrameType::kPing;
  std::uint8_t flags = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_len = 0;
};

// ---- Primitive little-endian access ---------------------------------------

inline void put_u8(std::vector<std::uint8_t>& b, std::uint8_t v) {
  b.push_back(v);
}
inline void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}
inline void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
inline void put_f64(std::vector<std::uint8_t>& b, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(b, bits);
}

inline std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}
inline double load_f64(const std::uint8_t* p) {
  std::uint64_t bits = load_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Bounds-checked sequential reader over a payload span.  Every accessor
/// throws WireError past the end — a truncated payload can never read
/// out of bounds.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return *take(1); }
  std::uint16_t u16() { return load_u16(take(2)); }
  std::uint32_t u32() { return load_u32(take(4)); }
  std::uint64_t u64() { return load_u64(take(8)); }
  double f64() { return load_f64(take(8)); }

  /// Raw view of the next n bytes (no copy).
  std::span<const std::uint8_t> bytes(std::size_t n) {
    return {take(n), n};
  }

  std::string str(std::size_t n) {
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }

  /// Decode n doubles into `out` (resized).  On little-endian hosts this
  /// is one memcpy straight out of the connection buffer.
  void f64_array(std::vector<double>& out, std::size_t n);

  std::size_t remaining() const { return bytes_.size() - off_; }
  bool done() const { return off_ == bytes_.size(); }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (n > bytes_.size() - off_)
      throw WireError("truncated payload: wanted " + std::to_string(n) +
                      " bytes, " + std::to_string(bytes_.size() - off_) +
                      " left");
    const std::uint8_t* p = bytes_.data() + off_;
    off_ += n;
    return p;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t off_ = 0;
};

// ---- Frame headers --------------------------------------------------------

/// Append a 20-byte header for `h` to `out`.
void put_header(std::vector<std::uint8_t>& out, const FrameHeader& h);

/// Parse a header from the first kHeaderBytes of `bytes` (which must hold
/// at least that many).  Throws WireError on bad magic, version or type —
/// the stream is then unparseable and the connection should close.
FrameHeader parse_header(std::span<const std::uint8_t> bytes);

/// Overwrite the request id of an already-encoded frame (offset 8) —
/// the router's id-rewriting forward path.
void patch_request_id(std::span<std::uint8_t> frame, std::uint64_t id);

// ---- Trace-context block (protocol v2) ------------------------------------
//
// The distributed-tracing context travels as a fixed 25-byte block
// appended to the *end* of a submit or result payload, signaled by the
// kFrameHasTrace header flag.  Appending (rather than inserting) keeps
// every v1 payload offset stable, so the router's in-place fingerprint
// and request-id patches — and its verbatim forwarding through failover
// hand-offs and client hedges — carry the context untouched.

/// Append `ctx` to an already-encoded frame: grows the payload by
/// kTraceContextBytes, sets kFrameHasTrace, and promotes the header to
/// version 2.  No-op for an unsampled context (the frame stays v1).
void append_trace_context(std::vector<std::uint8_t>& frame,
                          const obs::TraceContext& ctx);

/// If `header` says the payload ends with a trace-context block, strip
/// it from `payload` (shrinking the span in place) and return the
/// decoded context; nullopt otherwise.  Call before decode_submit /
/// decode_result — their trailing-bytes checks see the v1 payload.
/// Throws WireError when the flag is set but the bytes are short.
std::optional<obs::TraceContext> split_trace_context(
    const FrameHeader& header, std::span<const std::uint8_t>& payload);

/// Read the trace context of a complete encoded frame (header +
/// payload) without modifying it — the router's peek on the forward
/// path.  Unsampled default when the frame carries none.  Skips a
/// trailing frame-checksum suffix when present.
obs::TraceContext peek_trace_context(std::span<const std::uint8_t> frame);

// ---- Frame checksum suffix (protocol v2) ----------------------------------
//
// End-to-end integrity: the sender appends a CRC32C over the payload
// (header excluded, so the router's request-id rewrite at offset 8 is
// checksum-neutral) and the final consumer verifies it.  Intermediate
// hops forward the payload bytes verbatim, so a corruption anywhere on
// the path — a bad NIC, a flipped bit in a router buffer — is caught at
// the edge.  The router's single in-payload mutation (the fingerprint
// patch) recomputes the suffix; see patch_submit_fingerprint.

/// Append a checksum suffix to an already-encoded frame: grows the
/// payload by kFrameChecksumBytes, sets kFrameHasChecksum, and promotes
/// the header to version 2.  Call *after* append_trace_context so the
/// checksum also covers the trace block.
void append_frame_checksum(std::vector<std::uint8_t>& frame);

/// If `header` says the payload carries a checksum suffix, verify and
/// strip it (shrinking the span in place).  Returns false — with the
/// span untouched — on a checksum mismatch; true otherwise (including
/// the no-suffix case).  Call *before* split_trace_context.  Throws
/// WireError when the flag is set but the payload is too short to hold
/// the suffix.
bool split_frame_checksum(const FrameHeader& header,
                          std::span<const std::uint8_t>& payload);

// ---- Submit frames --------------------------------------------------------

/// Submit-payload flag bits (the u16 at payload offset 6).
constexpr std::uint16_t kSubmitHasFingerprint = 1u << 0;

/// Payload offsets used by the router's in-place fingerprint patch.
constexpr std::size_t kSubmitFlagsOffset = 6;
constexpr std::size_t kSubmitFingerprintOffset = 24;

struct SubmitRequest {
  std::uint32_t tenant = 0;
  /// Canonical 128-bit fingerprint, filled by the shard router so the
  /// owning backend can account cache ownership without recomputing it.
  bool has_fingerprint = false;
  graph::Fingerprint fingerprint;
  svc::JobSpec spec;
};

std::vector<std::uint8_t> encode_submit(const SubmitRequest& req,
                                        std::uint64_t request_id);

/// Decode a kSubmit payload.  The graph is validated on construction
/// (Chain::validate / Tree::from_edges), so a decoded spec is exactly as
/// trustworthy as one built in process; invalid graphs throw WireError.
SubmitRequest decode_submit(std::span<const std::uint8_t> payload);

/// Stamp `fp` into an encoded submit *frame* (header + payload) in place
/// and set the has-fingerprint flag — the router routes on the canonical
/// fingerprint and forwards the original bytes untouched otherwise.
/// When the frame carries a checksum suffix, the suffix is recomputed
/// so downstream verification still passes.
void patch_submit_fingerprint(std::span<std::uint8_t> frame,
                              const graph::Fingerprint& fp);

// ---- Result / reject frames -----------------------------------------------

std::vector<std::uint8_t> encode_result(const svc::JobResult& r,
                                        std::uint64_t request_id);
svc::JobResult decode_result(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_reject(RejectCode code,
                                        std::string_view reason,
                                        std::uint64_t request_id);
struct Reject {
  RejectCode code = RejectCode::kInternal;
  std::string reason;
};
Reject decode_reject(std::span<const std::uint8_t> payload);

/// Client-side view of a reject: a failed JobResult (quota and overload
/// rejects map to JobStatus::kOverloaded, shutdown to kCancelled, the
/// rest to kInternalError), so callers see one result type either way.
svc::JobResult reject_to_result(const Reject& rej);

// ---- Metrics / ping frames ------------------------------------------------

std::vector<std::uint8_t> encode_metrics_request(std::uint64_t request_id);
/// A kMetricsReply carries a registry as typed samples:
///   u32 family count, then per family: u8 MetricType, u32-prefixed name
///   and help, u32 sample count; per sample: u32 label count and
///   u32-prefixed key/value pairs, then the value — u64 counter, f64
///   gauge, or a histogram as u32 bucket count (≤ kBuckets; trailing
///   empty buckets elided) + that many u64 + u64 count + f64 total µs +
///   f64 max µs.
std::vector<std::uint8_t> encode_metrics_reply(
    const obs::MetricsRegistry& registry, std::uint64_t request_id);
obs::MetricsRegistry decode_metrics_reply(
    std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_ping(std::uint64_t request_id);
std::vector<std::uint8_t> encode_pong(std::uint64_t request_id);

/// Pong carrying the responder's wall clock (unix microseconds at reply
/// time).  Clients use the RTT midpoint against it to estimate
/// cross-host clock offset for trace stitching.  Still a v1 frame: v1
/// pong consumers never look at the payload.
std::vector<std::uint8_t> encode_pong(std::uint64_t request_id,
                                      std::int64_t wall_us);

/// The responder wall clock from a pong payload; nullopt for the empty
/// v1 payload (old peers).
std::optional<std::int64_t> decode_pong(
    std::span<const std::uint8_t> payload);

// ---- Stream reassembly ----------------------------------------------------

/// Incremental frame extractor for blocking-socket clients: append raw
/// bytes, pop complete frames.  (The epoll server parses in place from
/// its per-connection buffer instead; this helper owns a copy.)
class FrameBuffer {
 public:
  explicit FrameBuffer(std::uint32_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void append(const std::uint8_t* data, std::size_t n);

  /// Extract the next complete frame, if any.  Throws WireError on an
  /// unparseable header or an oversized length prefix.
  bool next(FrameHeader& header, std::vector<std::uint8_t>& payload);

  std::size_t buffered() const { return buf_.size() - off_; }

 private:
  std::uint32_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
};

}  // namespace tgp::net
