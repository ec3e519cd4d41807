// Shard router: the fleet front door.
//
// One Router + one Server, with outbound connections to N backend
// `tgp_served` processes.  Every client submit is routed on the
// *canonical* 128-bit graph fingerprint — computed here if the client
// did not supply one — through the consistent-hash ring, so all
// isomorphic presentations of a graph land on the same backend and each
// backend's memo cache owns a disjoint slice of fingerprint space.
//
// Forwarding is in-place: the router re-uses the client's frame bytes,
// stamping the fingerprint (patch_submit_fingerprint) and a fresh
// router-side request id (patch_request_id) instead of re-encoding the
// graph.  Responses walk the id map back and are forwarded verbatim with
// the client's original id restored — the router never decodes a result.
//
// Between quota and forward sits fairness: per-tenant TokenBucket quotas
// reject abusive rates at the wire (kQuotaExceeded), and when the
// outstanding-forward cap is reached, admitted submits wait in a
// round-robin FairQueue so one pipelining tenant cannot monopolize the
// fleet.
//
// Fleet fault tolerance (see docs/architecture.md "Network failure
// modes"):
//
//   * Health checking — with Server ticks enabled, the router pings
//     every backend each tick and runs a per-shard
//     up → suspect → down → recovering machine (net/health.hpp) on the
//     answers.  State is exported as tgp_shard_health gauges and
//     shard.transition trace events.
//
//   * Failover with hand-off — when a shard goes down (disconnect or
//     missed probes), its in-flight and queued submits are re-routed to
//     the ring successor with their router-side request ids preserved.
//     Hand-off is safe because a submit is idempotent — the job is a
//     pure function keyed by its canonical fingerprint — and the id map
//     guarantees single delivery: the first response settles the id,
//     and a late duplicate from the original shard finds the id in the
//     recently-settled ring and is dropped, never double-delivered.
//     Only when *no* shard is serving does a submit fail kShardDown.
//
//   * Recovery — down shards are reconnected after a cooldown (bounded
//     connect so the loop never hangs on a dead address), probed while
//     recovering, and drained back in once healthy: the ring's minimal
//     reshuffle means exactly the keys they own come home, nothing else
//     moves.
//
// Single-threaded: every callback (frames, closes, ticks) runs on the
// Server's loop thread, so the router needs no locks anywhere.  stats()
// may be read from another thread only once the loop has stopped.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/health.hpp"
#include "net/server.hpp"
#include "net/shard.hpp"
#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "svc/tenant.hpp"

namespace tgp::net {

class Router : public Server::Handler {
 public:
  struct Config {
    svc::TenantQuotaConfig tenant_quota;
    /// Cap on forwarded-but-unanswered submits across the fleet; beyond
    /// it, admitted submits wait in the fair queue.
    std::size_t max_outstanding = 1024;
    /// And a cap on how many may wait: beyond it, submits are rejected
    /// kOverloaded at the wire (backpressure must reach the client).
    std::size_t max_queued = 4096;

    /// Active probing (requires Server::Config::tick_interval_ms > 0;
    /// without ticks only disconnect-driven transitions fire).
    ShardHealthConfig health;
    /// A ping unanswered this long counts as a probe miss.  Each tick
    /// sends one ping to every serving backend with none outstanding.
    double probe_timeout_us = 500'000;
    /// Deadline for reconnect attempts to down shards (loop-blocking!).
    int connect_timeout_ms = 250;

    /// Poll every serving backend for its metrics registry each this many
    /// ticks; the cached replies are merged into /metrics with a
    /// shard="<i>" label so one router scrape covers the fleet.  0 = the
    /// router exports only its own families.
    int metrics_every_ticks = 0;
    /// Slowest-K requests kept as tail exemplars (gauges on /metrics and
    /// slow_log_json() for the tools).  0 disables the log.
    std::size_t slow_log_size = 8;
  };

  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t returned = 0;
    std::uint64_t quota_rejects = 0;
    std::uint64_t overload_rejects = 0;
    std::uint64_t shard_down_rejects = 0;
    std::uint64_t fingerprints_computed = 0;
    std::uint64_t requests_rerouted = 0;  ///< dispatched off-owner + handed off
    std::uint64_t handoffs = 0;           ///< in-flight jobs re-sent on down
    std::uint64_t duplicates_dropped = 0; ///< late answers for settled ids
    std::uint64_t failovers = 0;          ///< serving shards lost (→ down)
    std::uint64_t recoveries = 0;         ///< shards rejoined (→ up)
    std::uint64_t reconnects = 0;         ///< successful re-dials
    std::uint64_t pings_sent = 0;
    std::uint64_t ping_misses = 0;
    std::size_t queued_now = 0;
    std::size_t queued_peak = 0;
    std::size_t outstanding_now = 0;
    std::size_t backends_up = 0;  ///< serving (up or suspect) shards
  };

  explicit Router(Config config);

  void attach(Server& server) { server_ = &server; }

  /// Open outbound connections to every backend, in shard order.  Call
  /// after attach() and before Server::run().  Throws SocketError if any
  /// backend is unreachable.
  void connect_backends(
      const std::vector<std::pair<std::string, std::uint16_t>>& backends);

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(backends_.size());
  }

  void on_frame(std::uint64_t conn, const FrameHeader& header,
                std::span<const std::uint8_t> payload) override;
  void on_close(std::uint64_t conn) override;
  void on_tick() override;
  obs::MetricsRegistry on_metrics() override;

  Stats stats() const;

  /// One tail exemplar: a completed request among the slowest K, with
  /// the phase breakdown the router can see (queue wait + backend round
  /// trip = end-to-end) and the trace id when the request was sampled.
  struct SlowRequest {
    std::uint64_t router_id = 0;
    std::uint64_t client_request_id = 0;
    std::uint32_t shard = 0;        ///< responder (successor on hand-off)
    double e2e_micros = 0;          ///< accept → response out
    double queue_micros = 0;        ///< accept → dispatch
    double backend_micros = 0;      ///< dispatch → response in
    std::uint64_t trace_hi = 0;
    std::uint64_t trace_lo = 0;
  };

  /// The slowest-K requests seen so far, sorted slowest first.  Loop
  /// thread, or loop stopped (same contract as stats()).
  std::vector<SlowRequest> slow_requests() const;

  /// slow_requests() as a JSON array for `--slow-log` dumps.
  std::string slow_log_json() const;

 private:
  struct BackendLink {
    std::uint64_t conn = 0;
    bool connected = false;  ///< outbound conn currently registered
    ShardHealth health;
    std::string host;
    std::uint16_t port = 0;
    std::uint64_t ping_id = 0;      ///< outstanding probe, 0 = none
    std::int64_t ping_sent_us = 0;
    ShardState last_state = ShardState::kUp;  ///< for transition counters
    std::uint64_t metrics_id = 0;   ///< outstanding metrics poll, 0 = none
    obs::MetricsRegistry metrics;   ///< last decoded kMetricsReply

    explicit BackendLink(const ShardHealthConfig& hc) : health(hc) {}
  };
  /// A forwarded submit awaiting its backend response.
  struct Pending {
    std::uint64_t client_conn = 0;
    std::uint64_t client_request_id = 0;
    std::uint32_t backend = 0;
    std::uint64_t key = 0;  ///< fingerprint fold (ring position)
    /// Frame copy kept for hand-off (fingerprint stamped, router id
    /// patched).
    std::vector<std::uint8_t> frame;
    /// Distributed-trace identity of the client request (unsampled when
    /// the client did not trace) and the router-side phase timestamps.
    obs::TraceContext ctx;
    std::int64_t accept_ns = 0;    ///< submit frame accepted
    std::int64_t dispatch_ns = 0;  ///< forwarded to a backend
  };
  /// An admitted submit waiting for an outstanding-forward slot.
  struct Waiting {
    std::uint64_t client_conn = 0;
    std::uint64_t client_request_id = 0;
    std::uint64_t key = 0;
    std::vector<std::uint8_t> frame;  // fingerprint already stamped
    obs::TraceContext ctx;
    std::int64_t accept_ns = 0;
  };

  void handle_submit(std::uint64_t conn, const FrameHeader& header,
                     std::span<const std::uint8_t> payload);
  void handle_backend_frame(std::uint32_t backend, const FrameHeader& header,
                            std::span<const std::uint8_t> payload);
  void dispatch(Waiting w);
  void pump();
  void reject_client(std::uint64_t conn, std::uint64_t request_id,
                     RejectCode code, const std::string& reason);
  /// Serving shard for a ring key (failover walk), or shard_count()
  /// when the whole fleet is down.
  std::uint32_t route_of(std::uint64_t key) const;
  /// Mark a shard not-serving and re-route everything it owns.
  void shard_down(std::uint32_t backend, const char* why);
  void hand_off(std::uint32_t backend);
  void note_event(std::uint32_t backend, const ShardHealth::Event& ev);
  void probe(std::uint32_t backend);
  void try_reconnect(std::uint32_t backend);
  void settle(std::uint64_t router_id);
  /// Latency accounting + trace spans for a settled forward: records the
  /// e2e histogram, keeps the slowest-K exemplar, and emits the
  /// router.queue.wait / router.backend spans when the request is traced.
  void record_response(const Pending& p, std::uint64_t router_id,
                       std::uint32_t responder, std::int64_t done_ns);
  void poll_shard_metrics();
  /// The router's own families (stats counters, health gauges, the e2e
  /// histogram, slow-request exemplars) — everything except the merged
  /// shard registries.
  void record_own_metrics(obs::MetricsRegistry& registry);
  std::int64_t now_micros() const;

  Config config_;
  Server* server_ = nullptr;
  HashRing ring_{1};  // rebuilt by connect_backends
  std::vector<BackendLink> backends_;
  std::unordered_map<std::uint64_t, std::uint32_t> backend_of_conn_;

  std::uint64_t next_router_id_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
  svc::TenantQuota quota_;
  svc::FairQueue<Waiting> queue_;

  /// Recently settled router ids: a bounded ring used to tell a late
  /// duplicate response (hand-off raced the original shard's answer)
  /// from wire garbage.
  static constexpr std::size_t kSettledRing = 8192;
  std::unordered_set<std::uint64_t> settled_;
  std::deque<std::uint64_t> settled_order_;

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::uint64_t tick_count_ = 0;

  std::uint64_t forwarded_ = 0;
  std::uint64_t returned_ = 0;
  std::uint64_t quota_rejects_ = 0;
  std::uint64_t overload_rejects_ = 0;
  std::uint64_t shard_down_rejects_ = 0;
  std::uint64_t fingerprints_computed_ = 0;
  std::uint64_t requests_rerouted_ = 0;
  std::uint64_t handoffs_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t pings_sent_ = 0;
  std::uint64_t ping_misses_ = 0;

  /// Fleet-level latency + tail exemplars (loop thread only).
  obs::LatencyHistogram e2e_latency_;
  std::vector<SlowRequest> slow_;  ///< unsorted slowest-K pool
};

}  // namespace tgp::net
