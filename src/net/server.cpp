#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace tgp::net {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kCompactThreshold = 1u << 20;
constexpr std::size_t kHttpRequestCap = 16 * 1024;

}  // namespace

Server::Server(Config config, Handler& handler)
    : config_(std::move(config)), handler_(handler) {
  listen_fd_ = listen_tcp(config_.bind, config_.port, config_.backlog);
  port_ = local_port(listen_fd_.get());

  epoll_fd_ = UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid())
    throw SocketError(std::string("epoll_create1: ") + std::strerror(errno));
  wake_fd_ = UniqueFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_fd_.valid())
    throw SocketError(std::string("eventfd: ") + std::strerror(errno));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listen socket sentinel
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &ev) < 0)
    throw SocketError(std::string("epoll_ctl(listen): ") +
                      std::strerror(errno));
  ev.events = EPOLLIN;
  ev.data.u64 = 1;  // wake eventfd sentinel
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) < 0)
    throw SocketError(std::string("epoll_ctl(wake): ") +
                      std::strerror(errno));

  if (config_.tick_interval_ms > 0) {
    timer_fd_ = UniqueFd(
        ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK));
    if (!timer_fd_.valid())
      throw SocketError(std::string("timerfd_create: ") +
                        std::strerror(errno));
    itimerspec spec{};
    spec.it_interval.tv_sec = config_.tick_interval_ms / 1000;
    spec.it_interval.tv_nsec =
        static_cast<long>(config_.tick_interval_ms % 1000) * 1'000'000L;
    spec.it_value = spec.it_interval;
    if (::timerfd_settime(timer_fd_.get(), 0, &spec, nullptr) < 0)
      throw SocketError(std::string("timerfd_settime: ") +
                        std::strerror(errno));
    ev.events = EPOLLIN;
    ev.data.u64 = 2;  // tick timer sentinel (conn keys start at 3 = id 1)
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, timer_fd_.get(), &ev) < 0)
      throw SocketError(std::string("epoll_ctl(timer): ") +
                        std::strerror(errno));
  }
}

Server::~Server() = default;

void Server::wake() {
  std::uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore short writes.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_.get(), &one, sizeof one);
}

void Server::stop() {
  stop_.store(true);
  wake();
}

void Server::send(std::uint64_t conn, std::vector<std::uint8_t> frame) {
  {
    std::lock_guard lk(mail_mu_);
    mailbox_.push_back({Mail::Kind::kSend, conn, std::move(frame)});
  }
  wake();
}

void Server::close_conn(std::uint64_t conn) {
  {
    std::lock_guard lk(mail_mu_);
    mailbox_.push_back({Mail::Kind::kClose, conn, {}});
  }
  wake();
}

std::uint64_t Server::connect(const std::string& host, std::uint16_t port,
                              int connect_timeout_ms) {
  UniqueFd fd = connect_tcp(host, port, connect_timeout_ms);
  set_nonblocking(fd.get());
  auto conn = std::make_unique<Conn>();
  conn->fd = std::move(fd);
  conn->outbound = true;
  conn->mode_known = true;  // we initiated: it speaks the binary protocol
  std::uint64_t id;
  {
    // Registration mutates loop state (conns_), so connect() must run
    // either before run() (topology setup: Router::connect_backends) or
    // *on* the loop thread (Router::on_tick reconnecting a recovered
    // shard) — both hold.  The mailbox lock only serializes the conn-id
    // counter; the epoll registration itself is thread-safe.
    std::lock_guard lk(mail_mu_);
    id = next_conn_id_++;
    conn->id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id + 2;  // 0/1 are the listen/wake sentinels
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd.get(), &ev) < 0)
      throw SocketError(std::string("epoll_ctl(connect): ") +
                        std::strerror(errno));
    conns_.emplace(id, std::move(conn));
  }
  handler_.on_open(id, /*outbound=*/true);
  return id;
}

Server::Conn* Server::find(std::uint64_t id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void Server::run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_.load()) {
    // Injected stalls need a short poll so frozen connections thaw on
    // time; otherwise the loop sleeps until real work arrives.
    const int wait_ms = stalled_conns_ > 0 ? 1 : -1;
    int n = ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SocketError(std::string("epoll_wait: ") + std::strerror(errno));
    }
    if (stalled_conns_ > 0) release_stalls();
    for (int i = 0; i < n; ++i) {
      std::uint64_t key = events[i].data.u64;
      std::uint32_t mask = events[i].events;
      if (key == 0) {
        accept_ready();
        continue;
      }
      if (key == 1) {
        std::uint64_t drained;
        while (::read(wake_fd_.get(), &drained, sizeof drained) > 0) {
        }
        drain_mailbox();
        continue;
      }
      if (key == 2) {
        std::uint64_t expirations;
        while (::read(timer_fd_.get(), &expirations, sizeof expirations) >
               0) {
        }
        ++counters_.ticks;
        handler_.on_tick();
        continue;
      }
      Conn* c = find(key - 2);
      if (c == nullptr) continue;  // closed earlier this wakeup
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        destroy(c->id);
        continue;
      }
      if ((mask & EPOLLIN) != 0) {
        readable(*c);
        c = find(key - 2);  // readable() may have destroyed it
        if (c == nullptr) continue;
      }
      if ((mask & EPOLLOUT) != 0) writable(*c);
    }
  }
  drain_mailbox();  // flush best-effort sends queued before stop
  // Tear down every connection on the way out (fds closed, on_close
  // fired) so peers observe the stop immediately: an in-process stop()
  // must look like a process exit to the rest of the fleet.  The
  // listener goes too — a peer whose connect landed in the accept
  // backlog and was never accepted gets its RST from this close; until
  // it, that peer sees an ESTABLISHED connection to a server that will
  // never answer.
  listen_fd_.reset();
  while (!conns_.empty()) destroy(conns_.begin()->first);
}

void Server::drain_mailbox() {
  std::deque<Mail> batch;
  {
    std::lock_guard lk(mail_mu_);
    batch.swap(mailbox_);
  }
  for (Mail& m : batch) {
    Conn* c = find(m.conn);
    if (c == nullptr) continue;  // connection already gone: drop
    if (m.kind == Mail::Kind::kSend) {
      queue_frame(*c, std::move(m.frame));
    } else {
      c->closing = true;
      if (!flush(*c)) continue;
      if (c->out.size() == c->out_off)
        destroy(c->id);
      else
        update_epoll(*c);
    }
  }
}

void Server::accept_ready() {
  for (;;) {
    int raw = ::accept4(listen_fd_.get(), nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      TGP_WARN("net: accept failed: " << std::strerror(errno));
      return;
    }
    if (accept_fault()) {
      // Injected net.sock.accept: the connection is dropped before
      // registration, as if the SYN queue overflowed.  The peer sees an
      // immediate close and must retry.
      ++counters_.injected_sock_faults;
      ::close(raw);
      continue;
    }
    set_nodelay(raw);
    auto conn = std::make_unique<Conn>();
    conn->fd = UniqueFd(raw);
    conn->id = next_conn_id_++;
    ++counters_.accepts;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id + 2;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd.get(), &ev) <
        0) {
      TGP_WARN("net: epoll_ctl(accept) failed: " << std::strerror(errno));
      continue;  // UniqueFd closes it
    }
    std::uint64_t id = conn->id;
    conns_.emplace(id, std::move(conn));
    handler_.on_open(id, /*outbound=*/false);
  }
}

void Server::readable(Conn& c) {
  TGP_SPAN("net", "read");
  ingress_ns_ = obs::trace::now_ns();
  for (;;) {
    const std::size_t tail = c.in.size();
    c.in.resize(tail + kReadChunk);
    ssize_t n = faulty_recv(c.fd.get(), c.in.data() + tail, kReadChunk, 0);
    if (n > 0) {
      c.in.resize(tail + static_cast<std::size_t>(n));
      counters_.bytes_in += static_cast<std::uint64_t>(n);
      if (static_cast<std::size_t>(n) < kReadChunk) break;
      continue;
    }
    c.in.resize(tail);
    if (n == 0) {
      // Peer closed.  A partial frame in the buffer is a mid-frame
      // disconnect: nothing to answer, just tear down cleanly.
      if (c.in.size() - c.in_off > 0 && c.mode_known && !c.http)
        ++counters_.decode_errors;
      destroy(c.id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    if (errno == ECONNRESET && util::faults().armed())
      ++counters_.injected_sock_faults;
    destroy(c.id);
    return;
  }
  if (!c.mode_known && c.in.size() - c.in_off >= 4) {
    c.mode_known = true;
    std::uint32_t head = load_u32(c.in.data() + c.in_off);
    if (head != kMagic) {
      // Not our protocol: maybe a plain-HTTP metrics scrape.
      const char* p = reinterpret_cast<const char*>(c.in.data() + c.in_off);
      if (std::memcmp(p, "GET ", 4) == 0 || std::memcmp(p, "HEAD", 4) == 0) {
        c.http = true;
      } else {
        ++counters_.decode_errors;
        send_reject(c, RejectCode::kMalformed, "bad magic", 0,
                    /*close_after=*/true);
        return;
      }
    }
  }
  if (!c.mode_known) return;  // fewer than 4 bytes so far
  if (c.http)
    parse_http(c);
  else
    parse_frames(c);
}

void Server::parse_frames(Conn& c) {
  while (c.in.size() - c.in_off >= kHeaderBytes) {
    std::span<const std::uint8_t> view(c.in.data() + c.in_off,
                                       c.in.size() - c.in_off);
    FrameHeader h;
    try {
      h = parse_header(view);
    } catch (const WireError& e) {
      // Bad magic mid-stream / unknown version or type: the stream is
      // unparseable from here on.
      ++counters_.decode_errors;
      std::uint16_t v =
          view.size() >= 6 ? load_u16(view.data() + 4) : kMinVersion;
      bool version = view.size() >= 6 && load_u32(view.data()) == kMagic &&
                     (v < kMinVersion || v > kVersion);
      send_reject(c,
                  version ? RejectCode::kUnsupportedVersion
                          : RejectCode::kMalformed,
                  e.what(), 0, /*close_after=*/true);
      return;
    }
    if (h.payload_len > config_.max_payload_bytes) {
      ++counters_.oversized_frames;
      // Close after the reject: we refuse to buffer the payload, so the
      // stream cannot resynchronize past this frame.
      send_reject(c, RejectCode::kMalformed,
                  "oversized frame: " + std::to_string(h.payload_len) +
                      " bytes exceeds the " +
                      std::to_string(config_.max_payload_bytes) + " cap",
                  h.request_id, /*close_after=*/true);
      return;
    }
    if (view.size() < kHeaderBytes + h.payload_len) break;  // partial
    std::span<const std::uint8_t> payload =
        view.subspan(kHeaderBytes, h.payload_len);
    c.in_off += kHeaderBytes + h.payload_len;
    ++counters_.frames_in;
    if ((h.flags & kFrameHasChecksum) != 0) {
      // Verify — but do not strip — the suffix: the handler may forward
      // the payload verbatim (router) and the far end verifies again.
      // The length prefix kept the stream in sync, so a corrupt frame
      // is answered with a reject and the connection lives on.
      std::span<const std::uint8_t> probe = payload;
      bool intact = false;
      try {
        intact = split_frame_checksum(h, probe);
      } catch (const WireError&) {
        intact = false;  // flag set but suffix missing
      }
      if (!intact) {
        ++counters_.checksum_failures;
        send_reject(c, RejectCode::kMalformed,
                    "frame checksum mismatch: payload corrupted in transit",
                    h.request_id, /*close_after=*/false);
        Conn* still = find(c.id);
        if (still == nullptr || still->closing) return;
        continue;
      }
    }
    try {
      TGP_SPAN("net", "frame");
      handler_.on_frame(c.id, h, payload);
    } catch (const WireError& e) {
      // The length prefix kept the stream in sync: answer this request
      // and keep the connection.
      ++counters_.decode_errors;
      Conn* still = find(c.id);
      if (still == nullptr) return;
      send_reject(*still, RejectCode::kMalformed, e.what(), h.request_id,
                  /*close_after=*/false);
      still = find(c.id);  // send_reject may destroy under a fault storm
      if (still == nullptr || still->closing) return;
      continue;
    } catch (const std::exception& e) {
      TGP_WARN("net: handler failed: " << e.what());
      destroy(c.id);
      return;
    }
    Conn* still = find(c.id);
    if (still == nullptr || still->closing) return;
  }
  // Compact the consumed prefix so a chatty connection cannot grow the
  // buffer without bound.
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  } else if (c.in_off > kCompactThreshold) {
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(c.in_off));
    c.in_off = 0;
  }
}

void Server::parse_http(Conn& c) {
  std::string_view text(reinterpret_cast<const char*>(c.in.data() + c.in_off),
                        c.in.size() - c.in_off);
  std::size_t end = text.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    if (text.size() > kHttpRequestCap) destroy(c.id);
    return;
  }
  ++counters_.http_requests;
  TGP_SPAN("net", "http");
  // Request line: METHOD SP TARGET SP VERSION.
  std::size_t sp1 = text.find(' ');
  std::size_t sp2 = sp1 == std::string_view::npos
                        ? std::string_view::npos
                        : text.find(' ', sp1 + 1);
  std::string target;
  if (sp2 != std::string_view::npos)
    target = std::string(text.substr(sp1 + 1, sp2 - sp1 - 1));
  std::string response;
  if (target == "/metrics" || target.rfind("/metrics?", 0) == 0) {
    std::string body = obs::render_prometheus(handler_.on_metrics());
    response = "HTTP/1.1 200 OK\r\n"
               "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
               "Content-Length: " + std::to_string(body.size()) + "\r\n"
               "Connection: close\r\n\r\n" + body;
  } else {
    static constexpr const char* kBody = "try /metrics\n";
    response = "HTTP/1.1 404 Not Found\r\n"
               "Content-Type: text/plain\r\n"
               "Content-Length: " + std::to_string(std::strlen(kBody)) +
               "\r\n"
               "Connection: close\r\n\r\n" + kBody;
  }
  c.out.insert(c.out.end(), response.begin(), response.end());
  c.closing = true;
  if (!flush(c)) return;
  if (c.out.size() == c.out_off)
    destroy(c.id);
  else
    update_epoll(c);
}

void Server::queue_frame(Conn& c, std::vector<std::uint8_t> frame) {
  // A closing connection delivers only what was already queued.  New
  // frames are dropped: the peer is about to observe EOF anyway, and
  // appending after an injected-truncate tail would desync its stream.
  if (c.closing) return;
  // Chaos layer: sample one frame-fault decision per outbound frame
  // (no-op and a single atomic load when the injector is disarmed).
  switch (sample_frame_fault()) {
    case FrameFault::kNone:
      break;
    case FrameFault::kDrop:
      ++counters_.injected_frame_faults;
      return;  // the frame never existed
    case FrameFault::kDup: {
      ++counters_.injected_frame_faults;
      std::vector<std::uint8_t> copy = frame;
      const std::uint64_t id = c.id;
      queue_frame_raw(c, std::move(copy));
      Conn* still = find(id);
      if (still == nullptr) return;  // connection died mid-duplicate
      queue_frame_raw(*still, std::move(frame));
      return;
    }
    case FrameFault::kTruncate: {
      ++counters_.injected_frame_faults;
      // Send a strict prefix, then close: the peer observes a mid-frame
      // disconnect, the canonical "process died while writing" shape.
      frame.resize(std::max<std::size_t>(frame.size() / 2, 1));
      c.closing = true;
      const std::uint64_t id = c.id;
      queue_frame_raw(c, std::move(frame));
      Conn* still = find(id);
      if (still != nullptr && still->out.size() == still->out_off)
        destroy(id);
      return;
    }
    case FrameFault::kStall:
      ++counters_.injected_frame_faults;
      if (!c.stalled) {
        c.stalled = true;
        ++stalled_conns_;
      }
      // Restamp the deadline: repeated stalls extend the freeze.
      c.stall_until = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(config_.fault_stall_ms);
      break;  // the frame still queues; flush() holds it back
  }
  queue_frame_raw(c, std::move(frame));
}

void Server::queue_frame_raw(Conn& c, std::vector<std::uint8_t> frame) {
  ++counters_.frames_out;
  if (c.out.empty() && c.out_off == 0) {
    c.out = std::move(frame);
  } else {
    c.out.insert(c.out.end(), frame.begin(), frame.end());
  }
  if (!flush(c)) return;
  update_epoll(c);
}

void Server::release_stalls() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> due;
  for (const auto& [id, c] : conns_)
    if (c->stalled && now >= c->stall_until) due.push_back(id);
  for (std::uint64_t id : due) {
    Conn* c = find(id);
    if (c == nullptr) continue;
    c->stalled = false;
    --stalled_conns_;
    if (!flush(*c)) continue;
    if (c->out.size() == c->out_off && c->closing) {
      destroy(id);
      continue;
    }
    update_epoll(*c);
  }
}

void Server::send_reject(Conn& c, RejectCode code, const std::string& reason,
                         std::uint64_t request_id, bool close_after) {
  ++counters_.rejects_sent;
  std::vector<std::uint8_t> frame = encode_reject(code, reason, request_id);
  std::uint64_t id = c.id;
  queue_frame(c, std::move(frame));
  Conn* still = find(id);
  if (still == nullptr) return;  // an injected truncate tore it down
  if (close_after) still->closing = true;
  if (still->closing && still->out.size() == still->out_off) destroy(id);
}

bool Server::flush(Conn& c) {
  TGP_SPAN("net", "write");
  if (c.stalled) return true;  // injected stall: hold bytes until release
  while (c.out_off < c.out.size()) {
    ssize_t n = faulty_send(c.fd.get(), c.out.data() + c.out_off,
                            c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      counters_.bytes_out += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EPIPE && util::faults().armed())
      ++counters_.injected_sock_faults;
    destroy(c.id);
    return false;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  return true;
}

void Server::writable(Conn& c) {
  if (!flush(c)) return;
  if (c.out.empty() && c.closing) {
    destroy(c.id);
    return;
  }
  update_epoll(c);
}

void Server::update_epoll(Conn& c) {
  bool want = c.out_off < c.out.size();
  if (want == c.want_write) return;
  c.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = c.id + 2;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
}

void Server::destroy(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (it->second->stalled) --stalled_conns_;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, it->second->fd.get(), nullptr);
  ++counters_.closes;
  conns_.erase(it);
  handler_.on_close(id);
}

}  // namespace tgp::net
