// Backend handler: the bridge from the wire protocol to a
// PartitionService.  One Backend + one Server + one service = a
// `tgp_served` backend process (or one in-process shard in the tests and
// the socket soak).
//
// A kSubmit frame is decoded on the loop thread and pushed into the
// service with the completion-callback overload of submit(); when the
// job settles — on whichever worker thread ran it — the callback encodes
// the kResult frame and hands it to Server::send, whose mailbox marshals
// it back onto the loop.  The loop thread never blocks on a solve and a
// worker thread never touches a socket.
//
// Shard-ownership accounting: when configured with its position in a
// fleet (shard_index / shard_count), the backend recomputes ring
// ownership of every router-stamped fingerprint it receives and counts
// owned vs foreign submits and memo-cache hits.  With fingerprint-affine
// routing upstream the foreign counters stay at zero — that is the
// cache-disjointness acceptance check, exported per shard as
// `tgp_net_shard_submits_total{ownership=...}` and
// `tgp_net_shard_cache_hits_total{ownership=...}`.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "net/server.hpp"
#include "net/shard.hpp"
#include "net/wire.hpp"
#include "svc/service.hpp"

namespace tgp::net {

class Backend : public Server::Handler {
 public:
  struct Config {
    /// This backend's position in the fleet, for ownership accounting.
    /// shard_count <= 1 means standalone: everything is owned.
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
  };

  /// Ownership counters (atomic: bumped from worker-thread completion
  /// callbacks for cache hits, from the loop thread for submits).
  struct ShardStats {
    std::uint64_t owned_submits = 0;
    std::uint64_t foreign_submits = 0;
    /// Submits that arrived without a router-stamped fingerprint
    /// (direct clients) — not classifiable, not evidence either way.
    std::uint64_t unrouted_submits = 0;
    std::uint64_t owned_cache_hits = 0;
    std::uint64_t foreign_cache_hits = 0;
  };

  Backend(svc::PartitionService& service, Config config);

  /// The server to send results through.  Must be set before run();
  /// split from the constructor because Server's constructor needs the
  /// handler and the handler needs the server.
  void attach(Server& server) { server_ = &server; }

  void on_frame(std::uint64_t conn, const FrameHeader& header,
                std::span<const std::uint8_t> payload) override;
  obs::MetricsRegistry on_metrics() override;

  ShardStats shard_stats() const;

  /// Families this backend adds on top of the service snapshot: net_*
  /// loop counters and shard-ownership counters.
  void record_net_metrics(obs::MetricsRegistry& registry) const;

 private:
  void handle_submit(std::uint64_t conn, const FrameHeader& header,
                     std::span<const std::uint8_t> payload);

  svc::PartitionService& service_;
  Server* server_ = nullptr;
  Config config_;
  HashRing ring_;

  std::atomic<std::uint64_t> owned_submits_{0};
  std::atomic<std::uint64_t> foreign_submits_{0};
  std::atomic<std::uint64_t> unrouted_submits_{0};
  std::atomic<std::uint64_t> owned_cache_hits_{0};
  std::atomic<std::uint64_t> foreign_cache_hits_{0};
};

}  // namespace tgp::net
