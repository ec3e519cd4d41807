#include "net/backend.hpp"

#include <chrono>
#include <utility>

#include "obs/build_info.hpp"
#include "obs/trace.hpp"
#include "svc/metrics.hpp"
#include "util/assert.hpp"

namespace tgp::net {

namespace {
std::int64_t wall_clock_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Backend::Backend(svc::PartitionService& service, Config config)
    : service_(service),
      config_(config),
      ring_(config.shard_count == 0 ? 1 : config.shard_count) {}

void Backend::on_frame(std::uint64_t conn, const FrameHeader& header,
                       std::span<const std::uint8_t> payload) {
  TGP_REQUIRE(server_ != nullptr, "Backend::attach must precede run()");
  switch (header.type) {
    case FrameType::kSubmit:
      handle_submit(conn, header, payload);
      return;
    case FrameType::kMetricsRequest:
      server_->send(conn, encode_metrics_reply(on_metrics(),
                                               header.request_id));
      return;
    case FrameType::kPing:
      // The wall clock in the pong is what lets clients estimate clock
      // offset for cross-host trace stitching (RTT midpoint).
      server_->send(conn, encode_pong(header.request_id, wall_clock_us()));
      return;
    case FrameType::kPong:
    case FrameType::kResult:
    case FrameType::kReject:
    case FrameType::kMetricsReply:
      // Response types have no meaning inbound on a backend; answering
      // them with a reject (rather than closing) keeps a confused client
      // debuggable.
      throw WireError(std::string("backend cannot serve a ") +
                      frame_type_name(header.type) + " frame");
  }
  throw WireError("unhandled frame type");
}

void Backend::handle_submit(std::uint64_t conn, const FrameHeader& header,
                            std::span<const std::uint8_t> payload) {
  // Peel the v2 suffixes in LIFO order: checksum first (it was appended
  // last and covers the trace block), then the trace-context block, so
  // the v1 decoder below sees a clean payload.  The server already
  // verified the checksum before dispatch; a mismatch here means this
  // handler was reached without that screen (a test, an embedding) and
  // the WireError maps to a reject upstream.
  if (!split_frame_checksum(header, payload))
    throw WireError("frame checksum mismatch: payload corrupted in transit");
  const bool had_checksum = (header.flags & kFrameHasChecksum) != 0;
  std::optional<obs::TraceContext> ctx =
      split_trace_context(header, payload);
  obs::ContextScope trace_scope(ctx ? *ctx : obs::TraceContext{});
  TGP_SPAN("net", "backend.submit");
  SubmitRequest req = decode_submit(payload);  // WireError → server rejects
  if (ctx) req.spec.trace = *ctx;

  // Ownership accounting happens before the service can reject the job:
  // routing disjointness is a property of what *arrived*, not of what
  // was admitted.
  bool classified = false;
  bool owned = true;
  if (config_.shard_count > 1) {
    if (req.has_fingerprint) {
      classified = true;
      owned = ring_.owner(req.fingerprint) == config_.shard_index;
      (owned ? owned_submits_ : foreign_submits_).fetch_add(1);
    } else {
      unrouted_submits_.fetch_add(1);
    }
  } else {
    owned_submits_.fetch_add(1);
  }

  const std::uint64_t request_id = header.request_id;
  Server* server = server_;
  const bool count_hit = classified || config_.shard_count <= 1;
  const obs::TraceContext result_ctx = ctx ? *ctx : obs::TraceContext{};
  auto on_complete = [this, server, conn, request_id, owned, count_hit,
                      result_ctx, had_checksum](std::size_t,
                                                const svc::JobResult& result) {
    if (result.cache_hit && count_hit)
      (owned ? owned_cache_hits_ : foreign_cache_hits_).fetch_add(1);
    std::vector<std::uint8_t> frame = encode_result(result, request_id);
    // Echo the context so any hop that sees only the result frame (the
    // router's slow-log, a capture) can attribute it to the trace.
    append_trace_context(frame, result_ctx);
    // Checksum negotiation is per request: a client that protected its
    // submit gets a protected result (suffix order: trace, then crc).
    if (had_checksum) append_frame_checksum(frame);
    server->send(conn, std::move(frame));
  };

  try {
    service_.submit(std::move(req.spec), std::move(on_complete));
  } catch (const svc::ServiceStopped&) {
    server_->send(conn, encode_reject(RejectCode::kShuttingDown,
                                      "service is shut down", request_id));
  }
}

Backend::ShardStats Backend::shard_stats() const {
  ShardStats s;
  s.owned_submits = owned_submits_.load();
  s.foreign_submits = foreign_submits_.load();
  s.unrouted_submits = unrouted_submits_.load();
  s.owned_cache_hits = owned_cache_hits_.load();
  s.foreign_cache_hits = foreign_cache_hits_.load();
  return s;
}

void Backend::record_net_metrics(obs::MetricsRegistry& r) const {
  const std::string shard = std::to_string(config_.shard_index);

  if (server_ != nullptr) {
    const obs::NetCounters& c = server_->counters();
    const obs::Labels l{{"shard", shard}};
    r.counter("tgp_net_accepts_total", "Connections accepted", c.accepts, l);
    r.counter("tgp_net_closes_total", "Connections closed", c.closes, l);
    r.counter("tgp_net_frames_in_total", "Frames received", c.frames_in, l);
    r.counter("tgp_net_frames_out_total", "Frames sent", c.frames_out, l);
    r.counter("tgp_net_bytes_in_total", "Bytes received", c.bytes_in, l);
    r.counter("tgp_net_bytes_out_total", "Bytes sent", c.bytes_out, l);
    r.counter("tgp_net_decode_errors_total", "Unparseable frames",
              c.decode_errors, l);
    r.counter("tgp_net_oversized_frames_total",
              "Length prefixes over the payload cap", c.oversized_frames, l);
    r.counter("tgp_net_rejects_sent_total", "kReject frames sent",
              c.rejects_sent, l);
    r.counter("tgp_net_checksum_failures_total",
              "Frame-checksum suffix mismatches", c.checksum_failures, l);
    r.counter("tgp_net_http_requests_total", "Plain-HTTP requests served",
              c.http_requests, l);
  }

  const ShardStats s = shard_stats();
  r.counter("tgp_net_shard_submits_total",
            "Submits by ring ownership (foreign ≈ 0 under a fingerprint-"
            "affine router)",
            s.owned_submits, {{"shard", shard}, {"ownership", "owned"}});
  r.counter("tgp_net_shard_submits_total", "", s.foreign_submits,
            {{"shard", shard}, {"ownership", "foreign"}});
  r.counter("tgp_net_shard_submits_total", "", s.unrouted_submits,
            {{"shard", shard}, {"ownership", "unrouted"}});
  r.counter("tgp_net_shard_cache_hits_total",
            "Memo-cache hits by ring ownership", s.owned_cache_hits,
            {{"shard", shard}, {"ownership", "owned"}});
  r.counter("tgp_net_shard_cache_hits_total", "", s.foreign_cache_hits,
            {{"shard", shard}, {"ownership", "foreign"}});
}

obs::MetricsRegistry Backend::on_metrics() {
  obs::MetricsRegistry r;
  service_.metrics().record(r);
  record_net_metrics(r);
  obs::record_process_metrics(r);
  return r;
}

}  // namespace tgp::net
