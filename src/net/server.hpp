// Single-threaded epoll event loop speaking the tgp wire protocol.
//
// One Server owns one listening socket, an epoll instance, and every
// connection's buffers.  The loop thread does all socket I/O and frame
// parsing and invokes the Handler callbacks; other threads interact only
// through the thread-safe mailbox (`send`, `close_conn`, `stop`), which
// wakes the loop via an eventfd.  That split keeps the hot path free of
// locks — a frame travels socket → connection buffer → Handler::on_frame
// as one contiguous span, with no copy between the read buffer and the
// decoder.
//
// Robustness contract (exercised by tests/test_net_server.cpp):
//   * a truncated header or mid-frame disconnect tears the connection
//     down cleanly — buffers are freed, on_close fires, nothing leaks;
//   * bad magic / version / frame type gets a best-effort kReject and a
//     close (the stream is unparseable past that point);
//   * an oversized length prefix is rejected *before* any buffering
//     sized from it;
//   * a payload that fails to decode (Handler throws WireError) gets a
//     kReject carrying the request id, and the connection lives on —
//     the length prefix kept the stream in sync.
//
// The same port also answers plain-HTTP `GET /metrics` (Handler::
// on_metrics rendered as Prometheus text): a connection whose first
// bytes are not the frame magic is sniffed as HTTP, served one
// response, and closed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/counters.hpp"
#include "obs/registry.hpp"

namespace tgp::net {

class Server {
 public:
  struct Config {
    std::string bind = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
    int backlog = 128;
    std::uint32_t max_payload_bytes = kDefaultMaxPayload;
    /// > 0 arms a timerfd on the loop: Handler::on_tick() fires every
    /// interval (the router's health probes and reconnects ride on it).
    int tick_interval_ms = 0;
    /// How long an injected net.frame.stall freezes a connection's
    /// outbound side (chaos testing only; see net/socket.hpp).
    int fault_stall_ms = 25;
  };

  /// Callbacks run on the loop thread (never concurrently).  Throwing
  /// WireError from on_frame sends a kReject for that request id;
  /// any other exception closes the connection.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void on_open(std::uint64_t conn, bool outbound) {
      (void)conn;
      (void)outbound;
    }
    virtual void on_frame(std::uint64_t conn, const FrameHeader& header,
                          std::span<const std::uint8_t> payload) = 0;
    /// Metrics for kMetricsRequest and, as Prometheus text, for
    /// `GET /metrics`.
    virtual obs::MetricsRegistry on_metrics() { return {}; }
    virtual void on_close(std::uint64_t conn) { (void)conn; }
    /// Timer callback (loop thread), every Config::tick_interval_ms.
    virtual void on_tick() {}
  };

  /// Binds and listens immediately (so port() is valid before run()).
  /// Throws SocketError on failure.
  Server(Config config, Handler& handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return port_; }

  /// Run the event loop on the calling thread until stop().
  void run();

  /// Ask the loop to exit.  Callable from any thread and from signal
  /// handlers (atomic store + eventfd write only).
  void stop();

  /// Open an outbound connection (e.g. router → backend) and register it
  /// with the loop.  Thread-safe; blocking connect bounded by
  /// `connect_timeout_ms` when > 0 (throws WireError kTimeout past the
  /// deadline — the router's reconnect path must not hang the loop on an
  /// unreachable shard).  Returns the conn id.
  std::uint64_t connect(const std::string& host, std::uint16_t port,
                        int connect_timeout_ms = 0);

  /// Queue a frame for sending.  Thread-safe; silently drops when the
  /// connection is already gone (the peer will never miss what it could
  /// not have received).
  void send(std::uint64_t conn, std::vector<std::uint8_t> frame);

  /// Close once pending writes flush.  Thread-safe.
  void close_conn(std::uint64_t conn);

  /// Loop-thread only (or after run() returned).
  const obs::NetCounters& counters() const { return counters_; }

  /// Loop-thread only: when the bytes of the frame currently being
  /// delivered to Handler::on_frame were read off the socket.  A client
  /// that pipelines a batch lands many frames in one read; each then
  /// waits in the parse buffer while earlier frames are handled, so a
  /// handler that timestamps arrival inside on_frame undercounts queueing
  /// by that serialization.  0 before the first read.
  std::int64_t ingress_ns() const { return ingress_ns_; }

 private:
  struct Conn {
    UniqueFd fd;
    std::uint64_t id = 0;
    bool outbound = false;
    bool http = false;          // sniffed as plain HTTP
    bool mode_known = false;    // first bytes seen yet?
    bool closing = false;       // close once out drains
    bool want_write = false;    // EPOLLOUT currently registered
    bool stalled = false;       // injected net.frame.stall in effect
    std::chrono::steady_clock::time_point stall_until{};
    std::vector<std::uint8_t> in;
    std::size_t in_off = 0;  // consumed prefix of `in`
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
  };

  // Mailbox entries posted from other threads.
  struct Mail {
    enum class Kind { kSend, kClose } kind;
    std::uint64_t conn = 0;
    std::vector<std::uint8_t> frame;
  };

  void wake();
  void drain_mailbox();
  void accept_ready();
  void readable(Conn& c);
  void writable(Conn& c);
  bool flush(Conn& c);  // false = connection died
  void queue_frame(Conn& c, std::vector<std::uint8_t> frame);
  void queue_frame_raw(Conn& c, std::vector<std::uint8_t> frame);
  void release_stalls();
  void send_reject(Conn& c, RejectCode code, const std::string& reason,
                   std::uint64_t request_id, bool close_after);
  void parse_frames(Conn& c);
  void parse_http(Conn& c);
  void update_epoll(Conn& c);
  void destroy(std::uint64_t id);
  Conn* find(std::uint64_t id);

  Config config_;
  Handler& handler_;
  UniqueFd listen_fd_;
  UniqueFd epoll_fd_;
  UniqueFd wake_fd_;
  UniqueFd timer_fd_;  // valid iff tick_interval_ms > 0
  std::uint16_t port_ = 0;
  std::size_t stalled_conns_ = 0;
  std::int64_t ingress_ns_ = 0;  // see ingress_ns()

  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;

  std::mutex mail_mu_;
  std::deque<Mail> mailbox_;
  std::atomic<bool> stop_{false};

  obs::NetCounters counters_;
};

}  // namespace tgp::net
