#include "net/client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

namespace tgp::net {

namespace {

[[noreturn]] void transport_fail(const char* what) {
  throw SocketError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Client::Client(Config config)
    : config_(std::move(config)),
      frames_(config_.max_payload),
      rng_(config_.seed, 0x9e3779b97f4a7c15ULL) {
  dial();
}

Client::Client(const std::string& host, std::uint16_t port,
               std::uint32_t max_payload)
    : Client(Config{.host = host, .port = port, .max_payload = max_payload}) {}

std::int64_t Client::mono_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Client::dial() {
  fd_ = connect_tcp(config_.host, config_.port, config_.connect_timeout_ms);
  set_nonblocking(fd_.get());
  if (config_.io_timeout_ms > 0)
    set_socket_timeouts(fd_.get(), config_.io_timeout_ms,
                        config_.io_timeout_ms);
  // A partial frame from a previous incarnation must not be glued to the
  // new stream.
  frames_ = FrameBuffer(config_.max_payload);
}

void Client::reconnect() {
  fd_.reset();
  for (int attempt = 1; attempt <= config_.reconnect_attempts; ++attempt) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<std::int64_t>(config_.backoff.backoff_us(attempt, rng_))));
    try {
      dial();
      ++stats_.reconnects;
      return;
    } catch (const std::exception&) {
      if (attempt == config_.reconnect_attempts) throw;
    }
  }
  throw SocketError("reconnect budget exhausted");
}

void Client::exchange(std::vector<Entry>& entries, bool hedge) {
  const std::size_t n = entries.size();
  std::size_t remaining = n;
  // id -> slot for this batch's primary sends; hedges get their own map
  // so a winning answer can be told apart for the stats.
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  slot_of.reserve(n);
  for (std::size_t i = 0; i < n; ++i) slot_of.emplace(entries[i].id, i);
  std::unordered_map<std::uint64_t, std::size_t> hedge_slot;
  const bool hedging = hedge && config_.hedge_after_ms > 0;

  bool traced = false;
  for (const Entry& e : entries)
    if (e.span_id != 0) traced = true;

  // Bytes queued for the current connection; rebuilt from unanswered
  // entries after every re-dial (ids preserved — submits are idempotent).
  // When tracing, `send_marks` remembers where each entry's frame ends in
  // `out`, so crossing that offset stamps the entry's sent_ns — the whole
  // batch is encoded before the first byte moves, and that serialization
  // must show up as client.send.wait, not as untracked root time.
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::pair<std::size_t, std::size_t>> send_marks;  // end, slot
  std::size_t next_mark = 0;
  auto queue_unanswered = [&] {
    out.clear();
    out_off = 0;
    send_marks.clear();
    next_mark = 0;
    const std::int64_t now = mono_us();
    for (std::size_t i = 0; i < n; ++i) {
      Entry& e = entries[i];
      if (e.answered) continue;
      out.insert(out.end(), e.frame.begin(), e.frame.end());
      e.sent_us = now;
      e.hedged = false;  // the hedge died with the old connection too
      if (traced) {
        e.sent_ns = 0;  // a resend supersedes the old hand-off time
        send_marks.emplace_back(out.size(), i);
      }
    }
  };
  queue_unanswered();

  int redials_left = config_.reconnect_attempts;
  auto on_transport_down = [&](const char* what) {
    if (redials_left <= 0) transport_fail(what);
    --redials_left;
    reconnect();
    stats_.resubmitted += remaining;
    hedge_slot.clear();
    queue_unanswered();
  };

  std::int64_t last_activity_us = mono_us();
  // When the socket first turned readable for the current response
  // burst: answers wait in the kernel buffer while earlier frames of
  // the burst are drained and parsed, and that residency belongs to
  // client.recv.wait.  Re-armed once a recv() drains the socket.
  std::int64_t readable_ns = 0;

  while (remaining > 0) {
    const std::int64_t now = mono_us();

    // Hedge every overdue unanswered submit exactly once per connection.
    if (hedging) {
      for (std::size_t i = 0; i < n; ++i) {
        Entry& e = entries[i];
        if (e.answered || e.hedged ||
            now - e.sent_us < config_.hedge_after_ms * 1000) {
          continue;
        }
        e.hedged = true;
        const std::uint64_t id = next_id_++;
        hedge_slot.emplace(id, i);
        std::vector<std::uint8_t> copy = e.frame;
        patch_request_id(copy, id);
        out.insert(out.end(), copy.begin(), copy.end());
        ++stats_.hedges_sent;
      }
    }

    // Poll deadline: the earlier of the io-silence deadline and the
    // next hedge timer.  -1 = block forever (no deadlines configured).
    int wait_ms = -1;
    if (config_.io_timeout_ms > 0) {
      const std::int64_t due =
          last_activity_us + config_.io_timeout_ms * 1000 - now;
      wait_ms = static_cast<int>(std::max<std::int64_t>(0, due / 1000 + 1));
    }
    if (hedging) {
      for (const Entry& e : entries) {
        if (e.answered || e.hedged) continue;
        const std::int64_t due =
            e.sent_us + config_.hedge_after_ms * 1000 - now;
        const int ms = static_cast<int>(std::max<std::int64_t>(0, due / 1000 + 1));
        if (wait_ms < 0 || ms < wait_ms) wait_ms = ms;
      }
    }

    pollfd p{};
    p.fd = fd_.get();
    p.events = POLLIN;
    if (out_off < out.size()) p.events |= POLLOUT;
    int rc = ::poll(&p, 1, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      transport_fail("poll");
    }
    if (rc == 0) {
      // Timer fired.  Hedges are handled at the top of the loop; here
      // only the io-silence deadline matters.
      if (config_.io_timeout_ms > 0 &&
          mono_us() - last_activity_us >= config_.io_timeout_ms * 1000) {
        ++stats_.timeouts;
        if (redials_left <= 0)
          throw WireError("io timeout: no data for " +
                              std::to_string(config_.io_timeout_ms) +
                              "ms with " + std::to_string(remaining) +
                              " response(s) outstanding",
                          WireError::kTimeout);
        --redials_left;
        reconnect();
        stats_.resubmitted += remaining;
        hedge_slot.clear();
        queue_unanswered();
        last_activity_us = mono_us();
      }
      continue;
    }

    if ((p.revents & POLLOUT) != 0 && out_off < out.size()) {
      ssize_t sent = ::send(fd_.get(), out.data() + out_off,
                            out.size() - out_off, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EPIPE || errno == ECONNRESET) {
          on_transport_down("send");
          last_activity_us = mono_us();
          continue;
        }
        if (errno != EAGAIN && errno != EWOULDBLOCK) transport_fail("send");
      } else if (sent > 0) {
        out_off += static_cast<std::size_t>(sent);
        last_activity_us = mono_us();
        if (next_mark < send_marks.size() &&
            send_marks[next_mark].first <= out_off) {
          const std::int64_t ns = obs::trace::now_ns();
          while (next_mark < send_marks.size() &&
                 send_marks[next_mark].first <= out_off) {
            Entry& e = entries[send_marks[next_mark].second];
            if (e.span_id != 0 && e.sent_ns == 0) e.sent_ns = ns;
            ++next_mark;
          }
        }
      }
    }

    if ((p.revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      if (traced && readable_ns == 0 && (p.revents & POLLIN) != 0)
        readable_ns = obs::trace::now_ns();
      std::uint8_t chunk[64 * 1024];
      ssize_t got = ::recv(fd_.get(), chunk, sizeof chunk, 0);
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          readable_ns = 0;  // socket drained; next burst re-arms
          continue;
        }
        if (errno == ECONNRESET && redials_left > 0) {
          on_transport_down("recv");
          last_activity_us = mono_us();
          continue;
        }
        transport_fail("recv");
      }
      if (got == 0) {
        if (redials_left > 0) {
          on_transport_down("recv");
          last_activity_us = mono_us();
          continue;
        }
        throw SocketError("server closed the connection with " +
                          std::to_string(remaining) +
                          " response(s) outstanding");
      }
      last_activity_us = mono_us();
      const std::int64_t recv_ns =
          traced ? (readable_ns != 0 ? readable_ns : obs::trace::now_ns())
                 : 0;
      // A short read means the kernel buffer is (almost surely) empty:
      // the next readable burst gets a fresh start time.
      if (static_cast<std::size_t>(got) < sizeof chunk) readable_ns = 0;
      frames_.append(chunk, static_cast<std::size_t>(got));
      FrameHeader h;
      std::vector<std::uint8_t> payload;
      while (frames_.next(h, payload)) {
        std::size_t slot;
        bool from_hedge = false;
        if (auto it = slot_of.find(h.request_id); it != slot_of.end()) {
          slot = it->second;
        } else if (auto ht = hedge_slot.find(h.request_id);
                   ht != hedge_slot.end()) {
          slot = ht->second;
          from_hedge = true;
        } else {
          // A torn-down hedge's zombie, or a straggler from an earlier
          // batch on this connection (ids are never recycled, so it can
          // only be dropped — never mis-filed).
          if (resilient()) {
            ++stats_.duplicates_dropped;
            payload.clear();
            continue;
          }
          throw WireError("response for unknown request id " +
                          std::to_string(h.request_id));
        }
        Entry& e = entries[slot];
        if (e.answered) {
          if (!resilient())
            throw WireError("response for unknown request id " +
                            std::to_string(h.request_id));
          ++stats_.duplicates_dropped;
          payload.clear();
          continue;
        }
        e.answered = true;
        if (e.span_id != 0) {
          e.answered_ns = obs::trace::now_ns();
          e.recv_ns = recv_ns;  // when this answer's burst turned readable
        }
        e.header = h;
        e.payload = std::move(payload);
        payload.clear();
        if (from_hedge) ++stats_.hedge_wins;
        --remaining;
      }
    }
  }
}

std::vector<svc::JobResult> Client::run_batch(
    const std::vector<SubmitRequest>& requests) {
  std::vector<Entry> entries(requests.size());
  const std::int64_t now = mono_us();
  const bool tracing = config_.trace && obs::trace::enabled();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    entries[i].id = next_id_++;
    entries[i].frame = encode_submit(requests[i], entries[i].id);
    entries[i].sent_us = now;
    if (tracing) {
      Entry& e = entries[i];
      e.span_id = obs::trace::new_span_id();
      e.ctx.trace_hi =
          (static_cast<std::uint64_t>(rng_.next()) << 32) | rng_.next();
      e.ctx.trace_lo =
          (static_cast<std::uint64_t>(rng_.next()) << 32) | rng_.next();
      if ((e.ctx.trace_hi | e.ctx.trace_lo) == 0) e.ctx.trace_lo = 1;
      e.ctx.parent_span = e.span_id;
      e.ctx.sampled = true;
      // The context rides at the payload tail, so reconnect resubmits
      // and hedged copies (same bytes, fresh id) keep the trace id.
      append_trace_context(e.frame, e.ctx);
      e.start_ns = obs::trace::now_ns();
    }
    // Checksum goes on last so it covers the trace block too; every
    // resubmit/hedge copy carries the same (still valid) suffix.
    if (config_.checksum) append_frame_checksum(entries[i].frame);
  }
  exchange(entries, /*hedge=*/true);

  if (tracing) {
    // Root span per request: client encode → answer.  parent_span = 0
    // marks it as the trace root for the stitcher.
    for (const Entry& e : entries) {
      if (e.span_id == 0 || e.answered_ns == 0) continue;
      obs::TraceContext root = e.ctx;
      root.parent_span = 0;
      obs::trace::emit_complete_ctx(
          "net", "client.request", e.start_ns, e.answered_ns, root,
          e.span_id,
          {"bytes", static_cast<std::int64_t>(e.frame.size())},
          {"hedged", e.hedged ? 1 : 0});
      // The client's own queueing, parented on the root: encode → bytes
      // handed to the OS (the whole batch encodes before the first send,
      // so later requests wait on earlier ones), and the completing
      // recv() → parse (responses drain serially off one socket).
      if (e.sent_ns > e.start_ns) {
        obs::trace::emit_complete_ctx("net", "client.send.wait", e.start_ns,
                                      e.sent_ns, e.ctx,
                                      obs::trace::new_span_id());
      }
      if (e.recv_ns != 0 && e.answered_ns > e.recv_ns) {
        obs::trace::emit_complete_ctx("net", "client.recv.wait", e.recv_ns,
                                      e.answered_ns, e.ctx,
                                      obs::trace::new_span_id());
      }
    }
  }

  std::vector<svc::JobResult> results;
  results.reserve(entries.size());
  for (Entry& e : entries) {
    // Peel the v2 suffixes the backend echoed, checksum first (it was
    // appended last), then trace context, so the v1 decoders see a
    // clean payload.  This is the end of the end-to-end integrity path:
    // a mismatch here means the result bytes rotted somewhere between
    // the backend's encoder and this process.
    std::span<const std::uint8_t> payload = e.payload;
    if (!split_frame_checksum(e.header, payload)) {
      ++stats_.checksum_failures;
      throw WireError("result frame checksum mismatch: payload corrupted "
                      "in transit");
    }
    split_trace_context(e.header, payload);
    switch (e.header.type) {
      case FrameType::kResult:
        results.push_back(decode_result(payload));
        break;
      case FrameType::kReject:
        results.push_back(reject_to_result(decode_reject(payload)));
        break;
      default:
        throw WireError(std::string("unexpected ") +
                        frame_type_name(e.header.type) +
                        " frame in reply to a submit");
    }
  }
  return results;
}

svc::JobResult Client::run_one(const SubmitRequest& request) {
  std::vector<SubmitRequest> one{request};
  return run_batch(one).front();
}

obs::MetricsRegistry Client::fetch_metrics() {
  std::vector<Entry> entries(1);
  entries[0].id = next_id_++;
  entries[0].frame = encode_metrics_request(entries[0].id);
  entries[0].sent_us = mono_us();
  exchange(entries, /*hedge=*/false);
  if (entries[0].header.type != FrameType::kMetricsReply)
    throw WireError(std::string("expected kMetricsReply, got ") +
                    frame_type_name(entries[0].header.type));
  return decode_metrics_reply(entries[0].payload);
}

void Client::ping() {
  std::vector<Entry> entries(1);
  entries[0].id = next_id_++;
  entries[0].frame = encode_ping(entries[0].id);
  entries[0].sent_us = mono_us();
  exchange(entries, /*hedge=*/false);
  if (entries[0].header.type != FrameType::kPong)
    throw WireError(std::string("expected kPong, got ") +
                    frame_type_name(entries[0].header.type));
}

Client::ClockSync Client::measure_clock_offset(int samples) {
  ClockSync best;
  auto wall_us = [] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  };
  for (int i = 0; i < std::max(1, samples); ++i) {
    std::vector<Entry> entries(1);
    entries[0].id = next_id_++;
    entries[0].frame = encode_ping(entries[0].id);
    entries[0].sent_us = mono_us();
    const std::int64_t t0 = wall_us();
    exchange(entries, /*hedge=*/false);
    const std::int64_t t1 = wall_us();
    if (entries[0].header.type != FrameType::kPong)
      throw WireError(std::string("expected kPong, got ") +
                      frame_type_name(entries[0].header.type));
    std::optional<std::int64_t> server = decode_pong(entries[0].payload);
    if (!server) continue;  // pre-v2 peer: empty pong, no estimate
    const std::int64_t rtt = t1 - t0;
    if (!best.valid || rtt < best.rtt_us) {
      best.valid = true;
      best.rtt_us = rtt;
      // Midpoint estimate: the server stamped its clock somewhere inside
      // [t0, t1]; the midpoint bounds the error by rtt/2.
      best.offset_us = *server - (t0 + t1) / 2;
    }
  }
  return best;
}

}  // namespace tgp::net
