// The epoll server + backend handler, end to end over loopback
// (net/server.hpp robustness contract): happy-path batches through the
// blocking Client, and the malformed-frame matrix — truncated header,
// oversized length prefix, bad magic, bad version, mid-frame disconnect
// — each against a live server, clean under ASan.
#include "net/server.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>

#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "svc/service.hpp"
#include "tools/serve_tool.hpp"

namespace tgp::net {
namespace {

// One in-process backend: service + handler + server + loop thread.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    svc::ServiceConfig cfg;
    cfg.threads = 1;
    service_ = std::make_unique<svc::PartitionService>(cfg);
    backend_ = std::make_unique<Backend>(*service_, Backend::Config{});
    Server::Config sc;
    sc.max_payload_bytes = 1u << 20;  // small cap: oversized is testable
    server_ = std::make_unique<Server>(sc, *backend_);
    backend_->attach(*server_);
    loop_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    server_->stop();
    loop_.join();
    service_->shutdown();
  }

  std::uint16_t port() const { return server_->port(); }

  /// A raw blocking socket for hand-crafted malformed byte streams.
  UniqueFd raw() { return connect_tcp("127.0.0.1", port()); }

  static void send_all(int fd, const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
      ASSERT_GT(w, 0) << "send failed: " << std::strerror(errno);
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  }

  /// Read frames until one arrives (or the peer closes — returns false).
  static bool read_frame(int fd, FrameBuffer& fb, FrameHeader& h,
                         std::vector<std::uint8_t>& payload) {
    while (!fb.next(h, payload)) {
      std::uint8_t chunk[4096];
      ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      fb.append(chunk, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// True once the peer closes the connection (drains any pending bytes).
  static bool peer_closed(int fd) {
    for (;;) {
      std::uint8_t chunk[4096];
      ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  std::unique_ptr<svc::PartitionService> service_;
  std::unique_ptr<Backend> backend_;
  std::unique_ptr<Server> server_;
  std::thread loop_;
};

// ---- Happy path -----------------------------------------------------------

TEST_F(ServerTest, BatchMatchesDirectExecution) {
  std::vector<svc::JobSpec> specs = tools::generate_workload(30, 11, 0.4);
  std::vector<SubmitRequest> requests;
  for (const svc::JobSpec& s : specs) {
    SubmitRequest req;
    req.spec = s;
    requests.push_back(std::move(req));
  }

  Client client("127.0.0.1", port());
  std::vector<svc::JobResult> results = client.run_batch(requests);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    svc::JobResult direct = svc::execute_job_captured(specs[i]);
    EXPECT_EQ(results[i].status, direct.status) << "job " << i;
    EXPECT_EQ(results[i].objective, direct.objective) << "job " << i;
    EXPECT_EQ(results[i].cut.edges, direct.cut.edges) << "job " << i;
    EXPECT_EQ(results[i].components, direct.components) << "job " << i;
  }
}

TEST_F(ServerTest, PingAndMetricsOverTheBinaryPort) {
  Client client("127.0.0.1", port());
  client.ping();
  const obs::MetricsRegistry metrics = client.fetch_metrics();
  EXPECT_NE(metrics.family("tgp_net_frames_in_total"), nullptr);
  EXPECT_NE(metrics.family("tgp_net_shard_submits_total"), nullptr);
}

TEST_F(ServerTest, HttpMetricsScrapeOnTheSamePort) {
  UniqueFd fd = raw();
  const char* req = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  send_all(fd.get(), req, std::strlen(req));
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd.get(), chunk, sizeof chunk, 0)) > 0)
    response.append(chunk, static_cast<std::size_t>(n));
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("tgp_net_accepts_total"), std::string::npos);
}

// ---- Malformed-frame matrix -----------------------------------------------

TEST_F(ServerTest, TruncatedHeaderThenDisconnectIsClean) {
  {
    UniqueFd fd = raw();
    std::vector<std::uint8_t> frame = encode_ping(1);
    send_all(fd.get(), frame.data(), 7);  // 7 of 20 header bytes
  }  // close mid-header
  // The server survives: a fresh connection still works.
  Client client("127.0.0.1", port());
  client.ping();
}

TEST_F(ServerTest, MidFrameDisconnectIsClean) {
  {
    UniqueFd fd = raw();
    SubmitRequest req;
    req.spec = tools::generate_workload(1, 3, 0)[0];
    std::vector<std::uint8_t> frame = encode_submit(req, 1);
    send_all(fd.get(), frame.data(), frame.size() / 2);
  }  // close mid-payload: header promised more bytes than ever arrive
  Client client("127.0.0.1", port());
  client.ping();
}

TEST_F(ServerTest, OversizedLengthPrefixRejectedBeforeBuffering) {
  UniqueFd fd = raw();
  FrameHeader h;
  h.type = FrameType::kSubmit;
  h.request_id = 9;
  h.payload_len = (1u << 20) + 1;  // one past the configured cap
  std::vector<std::uint8_t> header;
  put_header(header, h);
  send_all(fd.get(), header.data(), header.size());

  FrameBuffer fb;
  FrameHeader rh;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fd.get(), fb, rh, payload));
  EXPECT_EQ(rh.type, FrameType::kReject);
  EXPECT_EQ(rh.request_id, 9u);
  Reject rej = decode_reject(payload);
  EXPECT_EQ(rej.code, RejectCode::kMalformed);
  EXPECT_NE(rej.reason.find("oversized"), std::string::npos);
  EXPECT_TRUE(peer_closed(fd.get()));  // stream cannot resync: closed
}

TEST_F(ServerTest, BadMagicGetsRejectAndClose) {
  UniqueFd fd = raw();
  std::uint8_t junk[32];
  std::memset(junk, 0x5A, sizeof junk);  // not TGPW, not "GET "
  send_all(fd.get(), junk, sizeof junk);

  FrameBuffer fb;
  FrameHeader rh;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fd.get(), fb, rh, payload));
  EXPECT_EQ(rh.type, FrameType::kReject);
  EXPECT_EQ(decode_reject(payload).code, RejectCode::kMalformed);
  EXPECT_TRUE(peer_closed(fd.get()));
}

TEST_F(ServerTest, BadVersionGetsUnsupportedVersionReject) {
  UniqueFd fd = raw();
  std::vector<std::uint8_t> frame = encode_ping(4);
  frame[4] = 99;  // version word
  send_all(fd.get(), frame.data(), frame.size());

  FrameBuffer fb;
  FrameHeader rh;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fd.get(), fb, rh, payload));
  EXPECT_EQ(rh.type, FrameType::kReject);
  EXPECT_EQ(decode_reject(payload).code, RejectCode::kUnsupportedVersion);
  EXPECT_TRUE(peer_closed(fd.get()));
}

TEST_F(ServerTest, UnknownFrameTypeGetsRejectAndClose) {
  UniqueFd fd = raw();
  std::vector<std::uint8_t> frame = encode_ping(5);
  frame[6] = 200;  // frame type
  send_all(fd.get(), frame.data(), frame.size());

  FrameBuffer fb;
  FrameHeader rh;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fd.get(), fb, rh, payload));
  EXPECT_EQ(rh.type, FrameType::kReject);
  EXPECT_EQ(decode_reject(payload).code, RejectCode::kMalformed);
  EXPECT_TRUE(peer_closed(fd.get()));
}

TEST_F(ServerTest, UndecodablePayloadKeepsTheConnectionAlive) {
  UniqueFd fd = raw();
  // A syntactically valid frame whose submit payload is garbage: the
  // length prefix keeps the stream in sync, so the server answers with
  // a kReject for this id and the connection lives on.
  FrameHeader h;
  h.type = FrameType::kSubmit;
  h.request_id = 6;
  h.payload_len = 8;
  std::vector<std::uint8_t> frame;
  put_header(frame, h);
  for (int i = 0; i < 8; ++i) frame.push_back(0xEE);
  std::vector<std::uint8_t> ping = encode_ping(7);
  frame.insert(frame.end(), ping.begin(), ping.end());
  send_all(fd.get(), frame.data(), frame.size());

  FrameBuffer fb;
  FrameHeader rh;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fd.get(), fb, rh, payload));
  EXPECT_EQ(rh.type, FrameType::kReject);
  EXPECT_EQ(rh.request_id, 6u);
  EXPECT_EQ(decode_reject(payload).code, RejectCode::kMalformed);
  // The pipelined ping behind the bad submit is still answered.
  ASSERT_TRUE(read_frame(fd.get(), fb, rh, payload));
  EXPECT_EQ(rh.type, FrameType::kPong);
  EXPECT_EQ(rh.request_id, 7u);
}

TEST_F(ServerTest, ManyAbusiveConnectionsDoNotWedgeTheServer) {
  for (int round = 0; round < 20; ++round) {
    UniqueFd fd = raw();
    std::uint8_t junk[3] = {0x54, 0x47, 0x50};  // 3 bytes, never 4
    send_all(fd.get(), junk, sizeof junk);
  }  // every socket closed before the mode sniff completes
  Client client("127.0.0.1", port());
  client.ping();
  std::vector<SubmitRequest> one;
  SubmitRequest req;
  req.spec = tools::generate_workload(1, 8, 0)[0];
  one.push_back(std::move(req));
  std::vector<svc::JobResult> r = client.run_batch(one);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r[0].ok);
}

}  // namespace
}  // namespace tgp::net
