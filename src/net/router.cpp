#include "net/router.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "graph/fingerprint.hpp"
#include "obs/build_info.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace tgp::net {

namespace {
std::int64_t wall_clock_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Router::Router(Config config) : config_(config), quota_(config.tenant_quota) {}

std::int64_t Router::now_micros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Router::connect_backends(
    const std::vector<std::pair<std::string, std::uint16_t>>& backends) {
  TGP_REQUIRE(server_ != nullptr, "Router::attach must precede connect");
  TGP_REQUIRE(!backends.empty(), "router needs at least one backend");
  TGP_REQUIRE(backends_.empty(), "backends already connected");
  backends_.reserve(backends.size());
  for (std::size_t i = 0; i < backends.size(); ++i) {
    std::uint64_t conn = server_->connect(backends[i].first,
                                          backends[i].second);
    backend_of_conn_.emplace(conn, static_cast<std::uint32_t>(i));
    BackendLink& link = backends_.emplace_back(config_.health);
    link.conn = conn;
    link.connected = true;
    link.host = backends[i].first;
    link.port = backends[i].second;
  }
  ring_ = HashRing(static_cast<std::uint32_t>(backends_.size()));
}

std::uint32_t Router::route_of(std::uint64_t key) const {
  return ring_.owner_if(key, [this](std::uint32_t s) {
    return backends_[s].connected && backends_[s].health.serving();
  });
}

void Router::on_frame(std::uint64_t conn, const FrameHeader& header,
                      std::span<const std::uint8_t> payload) {
  auto it = backend_of_conn_.find(conn);
  if (it != backend_of_conn_.end()) {
    handle_backend_frame(it->second, header, payload);
    return;
  }
  switch (header.type) {
    case FrameType::kSubmit:
      handle_submit(conn, header, payload);
      return;
    case FrameType::kMetricsRequest:
      server_->send(conn,
                    encode_metrics_reply(on_metrics(), header.request_id));
      return;
    case FrameType::kPing:
      // Wall clock in the pong → clients can estimate this process's
      // clock offset for cross-host trace stitching (RTT midpoint).
      server_->send(conn, encode_pong(header.request_id, wall_clock_us()));
      return;
    default:
      throw WireError(std::string("router cannot serve a ") +
                      frame_type_name(header.type) + " frame");
  }
}

void Router::handle_submit(std::uint64_t conn, const FrameHeader& header,
                           std::span<const std::uint8_t> payload) {
  // Peel the v2 suffixes off a *copy* of the payload view — checksum
  // first (appended last), then trace context — so the v1 decoder sees
  // clean bytes; the forwarded frame below is built from the original
  // payload, so both suffixes ride to the backend untouched (the
  // request-id patch is header-only, and the fingerprint patch refreshes
  // the checksum itself).  The server already screened the checksum, so
  // a mismatch here means an embedding skipped that screen.
  std::span<const std::uint8_t> body = payload;
  if (!split_frame_checksum(header, body))
    throw WireError("frame checksum mismatch: payload corrupted in transit");
  std::optional<obs::TraceContext> ctx = split_trace_context(header, body);
  obs::ContextScope trace_scope(ctx ? *ctx : obs::TraceContext{});
  TGP_SPAN("net", "router.submit");
  SubmitRequest req = decode_submit(body);  // WireError → server rejects

  if (!quota_.admit(req.tenant, now_micros())) {
    ++quota_rejects_;
    reject_client(conn, header.request_id, RejectCode::kQuotaExceeded,
                  "tenant " + std::to_string(req.tenant) +
                      " is over its admission quota");
    return;
  }

  // Route on the canonical fingerprint: isomorphic graphs — reversed
  // chains, relabeled trees — hash identically, so the owning backend's
  // memo cache sees every presentation of a graph.  The same canonical
  // key is what makes fail-over hand-off safe: a submit is a pure
  // function of its fingerprint, so re-sending it to another shard can
  // change latency, never the payload.
  graph::Fingerprint fp = req.fingerprint;
  if (!req.has_fingerprint) {
    TGP_SPAN("net", "router.fingerprint");
    fp = req.spec.is_chain() ? graph::chain_fingerprint(*req.spec.chain)
                             : graph::tree_fingerprint(*req.spec.tree);
    ++fingerprints_computed_;
  }

  Waiting w;
  w.client_conn = conn;
  w.client_request_id = header.request_id;
  w.key = fp.fold();
  if (ctx) w.ctx = *ctx;
  // Queue residency starts when the bytes hit the socket, not when this
  // handler got around to them: a pipelined batch lands whole in one
  // read, and frame k waits in the parse buffer behind k-1 submits.
  // That wait is queueing and must land in router.queue.wait, or the
  // stitched critical path shows it as untracked time.
  const std::int64_t read_ns = server_ ? server_->ingress_ns() : 0;
  w.accept_ns = read_ns != 0 ? read_ns : obs::trace::now_ns();
  w.frame.reserve(kHeaderBytes + payload.size());
  put_header(w.frame, header);
  w.frame.insert(w.frame.end(), payload.begin(), payload.end());
  patch_submit_fingerprint(w.frame, fp);

  if (pending_.size() >= config_.max_outstanding) {
    if (queue_.size() >= config_.max_queued) {
      ++overload_rejects_;
      reject_client(conn, header.request_id, RejectCode::kOverloaded,
                    "router fair queue is full");
      return;
    }
    queue_.push(req.tenant, std::move(w));
    return;
  }
  dispatch(std::move(w));
}

void Router::dispatch(Waiting w) {
  const std::uint32_t target = route_of(w.key);
  if (target >= backends_.size()) {
    ++shard_down_rejects_;
    reject_client(w.client_conn, w.client_request_id, RejectCode::kShardDown,
                  "no serving shard in the fleet");
    return;
  }
  if (target != ring_.owner(w.key)) ++requests_rerouted_;
  const std::uint64_t router_id = next_router_id_++;
  patch_request_id(w.frame, router_id);
  Pending p;
  p.client_conn = w.client_conn;
  p.client_request_id = w.client_request_id;
  p.backend = target;
  p.key = w.key;
  p.ctx = w.ctx;
  p.accept_ns = w.accept_ns;
  p.dispatch_ns = obs::trace::now_ns();
  p.frame = w.frame;  // kept for hand-off
  pending_.emplace(router_id, std::move(p));
  ++forwarded_;
  server_->send(backends_[target].conn, std::move(w.frame));
}

void Router::pump() {
  Waiting w;
  while (pending_.size() < config_.max_outstanding && queue_.pop(w))
    dispatch(std::move(w));
}

void Router::settle(std::uint64_t router_id) {
  if (settled_.insert(router_id).second) {
    settled_order_.push_back(router_id);
    if (settled_order_.size() > kSettledRing) {
      settled_.erase(settled_order_.front());
      settled_order_.pop_front();
    }
  }
}

void Router::record_response(const Pending& p, std::uint64_t router_id,
                             std::uint32_t responder, std::int64_t done_ns) {
  const double e2e_us =
      static_cast<double>(done_ns - p.accept_ns) * 1e-3;
  const double queue_us =
      static_cast<double>(p.dispatch_ns - p.accept_ns) * 1e-3;
  e2e_latency_.record(e2e_us);

  if (config_.slow_log_size > 0) {
    SlowRequest sr;
    sr.router_id = router_id;
    sr.client_request_id = p.client_request_id;
    sr.shard = responder;
    sr.e2e_micros = e2e_us;
    sr.queue_micros = queue_us;
    sr.backend_micros =
        static_cast<double>(done_ns - p.dispatch_ns) * 1e-3;
    sr.trace_hi = p.ctx.trace_hi;
    sr.trace_lo = p.ctx.trace_lo;
    if (slow_.size() < config_.slow_log_size) {
      slow_.push_back(sr);
    } else {
      auto min_it = std::min_element(
          slow_.begin(), slow_.end(),
          [](const SlowRequest& a, const SlowRequest& b) {
            return a.e2e_micros < b.e2e_micros;
          });
      if (min_it->e2e_micros < sr.e2e_micros) *min_it = sr;
    }
  }

  // The router's contribution to the distributed trace: the fair-queue
  // wait and the backend round trip, both parented on the client's root
  // span so the stitched view shows client → router → shard nesting.
  if (p.ctx.sampled && obs::trace::enabled()) {
    obs::trace::emit_complete_ctx("net", "router.queue.wait", p.accept_ns,
                                  p.dispatch_ns, p.ctx,
                                  obs::trace::new_span_id());
    obs::trace::emit_complete_ctx(
        "net", "router.backend", p.dispatch_ns, done_ns, p.ctx,
        obs::trace::new_span_id(),
        {"shard", static_cast<std::int64_t>(responder)},
        {"handed_off", p.backend != responder ? 1 : 0});
  }
}

std::vector<Router::SlowRequest> Router::slow_requests() const {
  std::vector<SlowRequest> out = slow_;
  std::sort(out.begin(), out.end(),
            [](const SlowRequest& a, const SlowRequest& b) {
              return a.e2e_micros > b.e2e_micros;
            });
  return out;
}

std::string Router::slow_log_json() const {
  std::string out = "[";
  bool first = true;
  char buf[128];
  for (const SlowRequest& s : slow_requests()) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\n  {\"client_request_id\": %" PRIu64
                  ", \"shard\": %u,",
                  s.client_request_id, s.shard);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  " \"e2e_us\": %.1f, \"queue_us\": %.1f,"
                  " \"backend_us\": %.1f,",
                  s.e2e_micros, s.queue_micros, s.backend_micros);
    out += buf;
    std::snprintf(buf, sizeof(buf), " \"trace\": \"%016" PRIx64 "%016" PRIx64
                  "\"}", s.trace_hi, s.trace_lo);
    out += buf;
  }
  out += first ? "]" : "\n]";
  return out;
}

void Router::poll_shard_metrics() {
  for (std::uint32_t i = 0; i < backends_.size(); ++i) {
    BackendLink& link = backends_[i];
    if (!link.connected) continue;
    // Re-issuing while a poll is outstanding invalidates the old id —
    // a late reply to it is dropped, not cached over a fresher one.
    link.metrics_id = next_router_id_++;
    server_->send(link.conn, encode_metrics_request(link.metrics_id));
  }
}

void Router::handle_backend_frame(std::uint32_t backend,
                                  const FrameHeader& header,
                                  std::span<const std::uint8_t> payload) {
  if (header.type == FrameType::kPong) {
    BackendLink& link = backends_[backend];
    if (link.ping_id != 0 && header.request_id == link.ping_id) {
      link.ping_id = 0;
      note_event(backend, link.health.probe_ok(now_micros()));
    }
    return;
  }
  if (header.type == FrameType::kMetricsReply) {
    // A fleet-metrics poll answering: cache the shard's registry for the
    // next /metrics render.  A stale reply (the poll id was re-issued) is
    // dropped rather than overwriting a fresher one; one that fails to
    // decode throws WireError with the shard's cached registry already
    // cleared, so the fleet view leaves the shard out until a good reply
    // arrives — its link and health are untouched.
    BackendLink& link = backends_[backend];
    if (link.metrics_id != 0 && header.request_id == link.metrics_id) {
      link.metrics_id = 0;
      link.metrics = {};
      link.metrics = decode_metrics_reply(payload);
    }
    return;
  }
  if (header.type != FrameType::kResult && header.type != FrameType::kReject)
    return;
  auto it = pending_.find(header.request_id);
  if (it == pending_.end()) {
    if (settled_.count(header.request_id) != 0) {
      // The hand-off raced the original shard's answer and both shards
      // responded; the first settled the id, this one is dropped —
      // single delivery, verified by bench_fleet_chaos.
      ++duplicates_dropped_;
      if (obs::trace::enabled()) {
        const std::int64_t ns = obs::trace::now_ns();
        obs::trace::emit_complete(
            "net", "router.dup_dropped", ns, ns,
            {"shard", static_cast<std::int64_t>(backend)});
      }
    }
    return;  // otherwise stale (client gone and reaped)
  }
  const Pending p = std::move(it->second);
  pending_.erase(it);
  settle(header.request_id);
  ++returned_;
  record_response(p, header.request_id, backend, obs::trace::now_ns());

  // Forward verbatim with the client's id restored — results are opaque
  // bytes to the router.
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + payload.size());
  put_header(frame, header);
  frame.insert(frame.end(), payload.begin(), payload.end());
  patch_request_id(frame, p.client_request_id);
  server_->send(p.client_conn, std::move(frame));
  pump();
}

void Router::reject_client(std::uint64_t conn, std::uint64_t request_id,
                           RejectCode code, const std::string& reason) {
  server_->send(conn, encode_reject(code, reason, request_id));
}

void Router::note_event(std::uint32_t backend, const ShardHealth::Event& ev) {
  if (!ev.changed) return;
  BackendLink& link = backends_[backend];
  // A failover is losing a *serving* shard; a failed reconnect bouncing
  // recovering → down is the same outage, not a new one.  Symmetrically
  // a recovery is rejoining from down/recovering — suspect → up is just
  // a probe answering.
  const bool was_serving = link.last_state == ShardState::kUp ||
                           link.last_state == ShardState::kSuspect;
  if (ev.state == ShardState::kDown && was_serving) ++failovers_;
  if (ev.state == ShardState::kUp && !was_serving) ++recoveries_;
  TGP_INFO("router: shard " << backend << " "
                            << shard_state_name(link.last_state) << " -> "
                            << shard_state_name(ev.state));
  link.last_state = ev.state;
  if (obs::trace::enabled()) {
    const std::int64_t ns = obs::trace::now_ns();
    obs::trace::emit_complete("net", "shard.transition", ns, ns,
                              {"shard", static_cast<std::int64_t>(backend)},
                              {"state", static_cast<std::int64_t>(ev.state)});
  }
}

void Router::hand_off(std::uint32_t backend) {
  std::vector<std::uint64_t> owned;
  for (const auto& [id, p] : pending_)
    if (p.backend == backend) owned.push_back(id);
  for (std::uint64_t id : owned) {
    Pending& p = pending_[id];
    const std::uint32_t target = route_of(p.key);
    if (target >= backends_.size()) {
      // Whole fleet down: fail the job; settle the id so a zombie
      // answer is dropped as a duplicate, not mistaken for wire noise.
      reject_client(p.client_conn, p.client_request_id,
                    RejectCode::kShardDown,
                    "shard " + std::to_string(backend) +
                        " died with the job in flight and no successor is "
                        "serving");
      ++shard_down_rejects_;
      settle(id);
      pending_.erase(id);
      continue;
    }
    // Re-send the stored frame — router id preserved, so whichever
    // shard answers first settles the job and the other answer is
    // deduplicated.
    p.backend = target;
    ++handoffs_;
    ++requests_rerouted_;
    server_->send(backends_[target].conn,
                  std::vector<std::uint8_t>(p.frame));
  }
}

void Router::shard_down(std::uint32_t backend, const char* why) {
  BackendLink& link = backends_[backend];
  TGP_WARN("router: shard " << backend << " down (" << why << ")");
  if (link.connected && link.conn != 0) {
    // Sever the connection; the close callback runs the hand-off.
    server_->close_conn(link.conn);
    return;
  }
  hand_off(backend);
}

void Router::on_close(std::uint64_t conn) {
  auto it = backend_of_conn_.find(conn);
  if (it == backend_of_conn_.end()) return;  // a client went away: fine
  const std::uint32_t backend = it->second;
  backend_of_conn_.erase(it);
  BackendLink& link = backends_[backend];
  link.connected = false;
  link.conn = 0;
  link.ping_id = 0;
  note_event(backend, link.health.disconnected(now_micros()));
  // Hand the dead shard's in-flight work to the ring successors; queued
  // work re-routes at dispatch.
  hand_off(backend);
  pump();
}

void Router::probe(std::uint32_t backend) {
  BackendLink& link = backends_[backend];
  const std::uint64_t id = next_router_id_++;
  link.ping_id = id;
  link.ping_sent_us = now_micros();
  ++pings_sent_;
  server_->send(link.conn, encode_ping(id));
}

void Router::try_reconnect(std::uint32_t backend) {
  BackendLink& link = backends_[backend];
  std::uint64_t conn = 0;
  try {
    conn = server_->connect(link.host, link.port, config_.connect_timeout_ms);
  } catch (const std::exception& e) {
    TGP_INFO("router: reconnect to shard " << backend << " failed: "
                                           << e.what());
    note_event(backend, link.health.reconnect_failed(now_micros()));
    return;
  }
  link.conn = conn;
  link.connected = true;
  backend_of_conn_.emplace(conn, backend);
  ++reconnects_;
  note_event(backend, link.health.reconnect_succeeded(now_micros()));
  // Start probing immediately; the shard drains back into the ring once
  // the recovery probes all answer.
  if (link.health.recovery_probe_due(now_micros())) probe(backend);
}

void Router::on_tick() {
  ++tick_count_;
  const std::int64_t now = now_micros();
  if (config_.metrics_every_ticks > 0 &&
      tick_count_ % static_cast<std::uint64_t>(config_.metrics_every_ticks) ==
          0)
    poll_shard_metrics();

  for (std::uint32_t i = 0; i < backends_.size(); ++i) {
    BackendLink& link = backends_[i];

    // Outstanding probe past its deadline: a miss.  Misses walk the
    // machine up → suspect → down (connection severed on down) and
    // re-open a recovering shard.
    if (link.connected && link.ping_id != 0 &&
        static_cast<double>(now - link.ping_sent_us) >=
            config_.probe_timeout_us) {
      link.ping_id = 0;
      ++ping_misses_;
      note_event(i, link.health.probe_miss(now));
      if (link.health.state() == ShardState::kDown) {
        shard_down(i, "probe misses");
        continue;
      }
    }

    if (!link.connected) {
      if (link.health.reconnect_due(now)) {
        // reconnect_due flipped the machine down → recovering; surface
        // the transition before the dial so traces show the full walk.
        note_event(i, {link.health.state(), true});
        try_reconnect(i);
      }
      continue;
    }

    const ShardState state = link.health.state();
    if ((state == ShardState::kUp || state == ShardState::kSuspect) &&
        link.ping_id == 0) {
      probe(i);
    } else if (state == ShardState::kRecovering && link.ping_id == 0 &&
               link.health.recovery_probe_due(now)) {
      probe(i);
    }
  }
  pump();
}

Router::Stats Router::stats() const {
  Stats s;
  s.forwarded = forwarded_;
  s.returned = returned_;
  s.quota_rejects = quota_rejects_;
  s.overload_rejects = overload_rejects_;
  s.shard_down_rejects = shard_down_rejects_;
  s.fingerprints_computed = fingerprints_computed_;
  s.requests_rerouted = requests_rerouted_;
  s.handoffs = handoffs_;
  s.duplicates_dropped = duplicates_dropped_;
  s.failovers = failovers_;
  s.recoveries = recoveries_;
  s.reconnects = reconnects_;
  s.pings_sent = pings_sent_;
  s.ping_misses = ping_misses_;
  s.queued_now = queue_.size();
  s.queued_peak = queue_.queued_peak();
  s.outstanding_now = pending_.size();
  for (const BackendLink& b : backends_)
    if (b.connected && b.health.serving()) ++s.backends_up;
  return s;
}

obs::MetricsRegistry Router::on_metrics() {
  obs::MetricsRegistry r;
  record_own_metrics(r);
  obs::record_process_metrics(r);
  // Fleet aggregation: fold every cached shard registry into this scrape
  // under a shard="<i>" label (keys the backend already stamped — its
  // own shard label on the net families — win over the injected one).
  for (std::uint32_t i = 0; i < backends_.size(); ++i)
    r.merge(backends_[i].metrics, {{"shard", std::to_string(i)}});
  return r;
}

void Router::record_own_metrics(obs::MetricsRegistry& r) {
  const Stats s = stats();
  r.counter("tgp_router_forwarded_total", "Submits forwarded to backends",
            s.forwarded);
  r.counter("tgp_router_returned_total", "Responses returned to clients",
            s.returned);
  r.counter("tgp_router_quota_rejects_total",
            "Submits rejected by tenant quota", s.quota_rejects);
  r.counter("tgp_router_overload_rejects_total",
            "Submits rejected with the fair queue full", s.overload_rejects);
  r.counter("tgp_router_shard_down_rejects_total",
            "Submits or in-flight jobs failed by a dead shard",
            s.shard_down_rejects);
  r.counter("tgp_router_fingerprints_computed_total",
            "Canonical fingerprints computed router-side",
            s.fingerprints_computed);
  r.counter("tgp_router_requests_rerouted_total",
            "Submits routed or handed off away from the owning shard",
            s.requests_rerouted);
  r.counter("tgp_router_handoffs_total",
            "In-flight jobs re-sent to a successor after a shard died",
            s.handoffs);
  r.counter("tgp_router_duplicates_dropped_total",
            "Late responses for already-settled requests dropped",
            s.duplicates_dropped);
  r.counter("tgp_router_failovers_total", "Shard transitions into down",
            s.failovers);
  r.counter("tgp_router_recoveries_total",
            "Shard transitions recovering -> up", s.recoveries);
  r.counter("tgp_router_reconnects_total",
            "Successful re-dials of down shards", s.reconnects);
  r.counter("tgp_router_pings_sent_total", "Health probes sent",
            s.pings_sent);
  r.counter("tgp_router_ping_misses_total",
            "Health probes unanswered past the deadline", s.ping_misses);
  r.gauge("tgp_router_outstanding", "Forwarded submits awaiting a response",
          static_cast<double>(s.outstanding_now));
  r.gauge("tgp_router_queued", "Submits waiting in the fair queue",
          static_cast<double>(s.queued_now));
  r.gauge("tgp_router_queued_peak", "Fair-queue high watermark",
          static_cast<double>(s.queued_peak));
  r.gauge("tgp_router_backends_up", "Serving (up or suspect) backends",
          static_cast<double>(s.backends_up));
  static constexpr ShardState kStates[] = {
      ShardState::kUp, ShardState::kSuspect, ShardState::kDown,
      ShardState::kRecovering};
  for (std::uint32_t i = 0; i < backends_.size(); ++i) {
    const ShardState cur = backends_[i].health.state();
    for (ShardState st : kStates) {
      const obs::Labels l{{"shard", std::to_string(i)},
                          {"state", shard_state_name(st)}};
      r.gauge("tgp_shard_health",
              "1 for the shard's current health state, 0 otherwise",
              st == cur ? 1.0 : 0.0, l);
    }
  }
  for (const auto& [tenant, st] : quota_.stats()) {
    const obs::Labels l{{"tenant", std::to_string(tenant)}};
    r.counter("tgp_router_tenant_admitted_total",
              "Submits admitted per tenant", st.admitted, l);
    r.counter("tgp_router_tenant_rejected_total",
              "Submits quota-rejected per tenant", st.rejected, l);
  }
  if (server_ != nullptr) {
    const obs::NetCounters& c = server_->counters();
    r.counter("tgp_net_frames_in_total", "Frames received", c.frames_in);
    r.counter("tgp_net_frames_out_total", "Frames sent", c.frames_out);
    r.counter("tgp_net_bytes_in_total", "Bytes received", c.bytes_in);
    r.counter("tgp_net_bytes_out_total", "Bytes sent", c.bytes_out);
    r.counter("tgp_net_decode_errors_total", "Unparseable frames",
              c.decode_errors);
    r.counter("tgp_net_rejects_sent_total", "kReject frames sent",
              c.rejects_sent);
    r.counter("tgp_net_ticks_total", "Timer ticks on the event loop",
              c.ticks);
    r.counter("tgp_net_injected_sock_faults_total",
              "Injected socket-level faults observed", c.injected_sock_faults);
    r.counter("tgp_net_injected_frame_faults_total",
              "Injected frame-level faults applied", c.injected_frame_faults);
  }

  // End-to-end latency as the router sees it (client submit accepted →
  // response forwarded), across every shard including hand-offs — the
  // fleet-level histogram a per-shard scrape cannot produce.
  r.histogram("tgp_router_e2e_latency_seconds",
              "End-to-end request latency observed at the router",
              e2e_latency_);

  // Tail exemplars: the slowest-K requests with their phase breakdown.
  // rank 0 is the slowest seen so far.
  std::vector<SlowRequest> slow = slow_requests();
  for (std::size_t k = 0; k < slow.size(); ++k) {
    const obs::Labels l{{"rank", std::to_string(k)},
                        {"shard", std::to_string(slow[k].shard)}};
    r.gauge("tgp_router_slow_e2e_micros",
            "Slowest-K request end-to-end latency", slow[k].e2e_micros, l);
    r.gauge("tgp_router_slow_queue_micros",
            "Slowest-K request fair-queue wait", slow[k].queue_micros, l);
    r.gauge("tgp_router_slow_backend_micros",
            "Slowest-K request backend round trip", slow[k].backend_micros,
            l);
  }
}

}  // namespace tgp::net
