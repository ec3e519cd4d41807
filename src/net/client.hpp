// Blocking client for the tgp wire protocol, used by the tgp_client
// tool, the socket benches and the loopback tests.
//
// One Client owns one TCP connection.  Single-shot calls (run_one,
// fetch_metrics, ping) are plain request/response.  run_batch pipelines:
// every submit is queued up front and writes are interleaved with reads
// via poll(), so a large batch can neither deadlock on full socket
// buffers (both sides writing, nobody reading) nor serialize on
// round-trip latency.  Responses are matched to requests by the echoed
// request id — a shard router may legally answer out of submission
// order — and returned in submission order.
//
// Resilience (all off by default; the bare ctor behaves exactly like
// the PR 6 client):
//
//   * Deadlines — connect_timeout_ms bounds the TCP handshake
//     (poll-based, throws WireError kTimeout); io_timeout_ms bounds
//     silence: if no byte arrives or departs for that long with
//     responses outstanding, the exchange times out.  SO_RCVTIMEO /
//     SO_SNDTIMEO are set to match as a belt for any blocking path.
//
//   * Reconnect — with reconnect_attempts > 0, a transport failure or
//     io timeout tears the connection down and re-dials with
//     exponential backoff (svc::RetryPolicy).  Every *unanswered*
//     frame is re-sent on the new connection with its request id
//     preserved — safe because submits are pure functions of their
//     payload — and a late answer from the old incarnation that races
//     in is dropped as a duplicate, never double-counted.
//
//   * Hedging — with hedge_after_ms > 0, a submit still unanswered
//     after the timer fires is sent a second time under a fresh id that
//     maps back to the original slot.  First answer wins; the loser is
//     dropped and counted.  Only run_batch hedges — submits are
//     idempotent; metrics/ping never need it.
//
// Request ids are allocated from one per-Client counter and never
// recycled: the connection outlives a batch, so the losing copy of a
// hedged submit (or a duplicated response frame) can arrive after its
// exchange returned, and a recycled id would file that stale payload
// into the next batch.  Unique ids make stragglers unmatchable — they
// are dropped and counted, never mis-delivered.
//
// Rejects are folded into failed JobResults (reject_to_result), so
// callers see exactly the JobResult a local PartitionService would have
// produced; that equivalence is what the CI byte-diff smoke checks.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "svc/job.hpp"
#include "svc/resilience.hpp"
#include "util/rng.hpp"

namespace tgp::net {

class Client {
 public:
  struct Config {
    std::string host;
    std::uint16_t port = 0;
    std::uint32_t max_payload = kDefaultMaxPayload;
    /// TCP handshake deadline; 0 = block forever (classic connect).
    int connect_timeout_ms = 0;
    /// Max silence (no byte in or out) with responses outstanding
    /// before the exchange times out; 0 = wait forever.
    int io_timeout_ms = 0;
    /// Re-dials allowed per exchange after transport failure/timeout;
    /// 0 = fail fast (PR 6 behavior).
    int reconnect_attempts = 0;
    /// Backoff schedule between re-dials (attempt 1 waits base_us...).
    svc::RetryPolicy backoff{.base_us = 10'000, .multiplier = 2.0,
                             .jitter = 0.1};
    /// Hedge a submit still unanswered after this many ms; 0 = off.
    int hedge_after_ms = 0;
    /// Seed for backoff jitter.
    std::uint64_t seed = 1;
    /// Distributed tracing: stamp a fresh sampled TraceContext onto
    /// every submit (append_trace_context) and record a client-side
    /// root span per request.  Requires obs tracing to be enabled to
    /// have any effect; leaves the wire bytes v1-identical when off.
    bool trace = false;
    /// End-to-end integrity: append a CRC32C suffix to every submit
    /// (append_frame_checksum) and verify the suffix the backend echoes
    /// on the result.  Off: wire bytes stay v1-identical.
    bool checksum = false;
  };

  struct Stats {
    std::uint64_t reconnects = 0;        ///< successful re-dials
    std::uint64_t resubmitted = 0;       ///< frames re-sent after re-dial
    std::uint64_t hedges_sent = 0;
    std::uint64_t hedge_wins = 0;        ///< hedge answered first
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t timeouts = 0;          ///< io deadlines that fired
    std::uint64_t checksum_failures = 0; ///< corrupt result frames seen
  };

  /// Connects immediately; throws SocketError on failure, WireError
  /// kTimeout if a connect deadline is set and missed.
  explicit Client(Config config);

  /// Legacy ctor: no deadlines, no reconnect, no hedging.
  Client(const std::string& host, std::uint16_t port,
         std::uint32_t max_payload = kDefaultMaxPayload);

  /// Pipeline the whole batch over the connection; results come back in
  /// submission order.  Throws WireError/SocketError on protocol or
  /// transport failure (an individual job failing is a JobResult, not an
  /// exception).  With reconnect/hedging enabled, transport failures are
  /// absorbed up to the configured budgets first.
  std::vector<svc::JobResult> run_batch(
      const std::vector<SubmitRequest>& requests);

  svc::JobResult run_one(const SubmitRequest& request);

  /// The server's metrics registry over the binary port
  /// (kMetricsRequest); obs::render_prometheus prints it.
  obs::MetricsRegistry fetch_metrics();

  /// Round-trip a kPing; throws on anything but a matching kPong.
  void ping();

  /// Estimated wall-clock offset of the server relative to this process
  /// (positive = server clock ahead), for cross-host trace stitching.
  struct ClockSync {
    bool valid = false;          ///< server answered with a wall clock
    std::int64_t offset_us = 0;  ///< RTT-midpoint estimate
    std::int64_t rtt_us = 0;     ///< round trip of the best sample
  };

  /// Ping `samples` times and keep the minimum-RTT estimate (the
  /// tightest bound on the midpoint).  Servers older than protocol v2
  /// send empty pongs — the result is then !valid.
  ClockSync measure_clock_offset(int samples = 5);

  const Stats& stats() const { return stats_; }

 private:
  /// One in-flight request: its wire bytes (kept for resubmit/hedge)
  /// and its answer slot.
  struct Entry {
    std::uint64_t id = 0;  ///< wire request id (unique per Client)
    std::vector<std::uint8_t> frame;
    FrameHeader header{};
    std::vector<std::uint8_t> payload;
    bool answered = false;
    std::int64_t sent_us = 0;
    bool hedged = false;
    /// Distributed-tracing bookkeeping (zero unless Config::trace):
    /// the context stamped on the wire and the root span it parents to.
    obs::TraceContext ctx;
    std::uint64_t span_id = 0;
    std::int64_t start_ns = 0;     ///< trace clock at encode
    std::int64_t sent_ns = 0;      ///< frame bytes fully handed to the OS
    std::int64_t recv_ns = 0;      ///< answer's burst became readable
    std::int64_t answered_ns = 0;  ///< trace clock at answer
  };

  /// Drive `entries` (ids already stamped into the frames) until every
  /// entry is answered.  `hedge` enables the hedge timer.
  void exchange(std::vector<Entry>& entries, bool hedge);

  bool resilient() const {
    return config_.reconnect_attempts > 0 || config_.io_timeout_ms > 0 ||
           config_.hedge_after_ms > 0;
  }
  void dial();                 ///< (re)connect fd_, fresh FrameBuffer
  void reconnect();            ///< backoff + dial, throws when exhausted
  std::int64_t mono_us() const;

  Config config_;
  UniqueFd fd_;
  FrameBuffer frames_;
  util::Pcg32 rng_;
  Stats stats_;
  /// Request ids are unique for the life of the Client, never recycled
  /// per batch: the connection outlives a batch, so a straggler response
  /// (the losing copy of a hedged submit, a duplicated frame) can arrive
  /// after its exchange returned — a recycled id would let it poison the
  /// matching slot of the *next* batch with a stale payload.
  std::uint64_t next_id_ = 0;
};

}  // namespace tgp::net
