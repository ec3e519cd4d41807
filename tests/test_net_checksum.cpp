// The wire frame-checksum suffix (net/wire kFrameHasChecksum):
// append/verify/strip round-trips, suffix ordering against the trace
// block, the router's checksum-neutral patches, and the interop matrix —
// checksummed and plain clients against one live server must see
// identical results, and a corrupted frame must draw a kReject on a
// connection that stays open.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>

#include "net/backend.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "svc/service.hpp"
#include "tools/serve_tool.hpp"

namespace tgp::net {
namespace {

SubmitRequest sample_submit(std::uint64_t seed = 3) {
  SubmitRequest req;
  req.spec = tools::generate_workload(1, seed, 0.0)[0];
  return req;
}

// ---- Suffix mechanics -----------------------------------------------------

TEST(FrameChecksum, AppendVerifyStripRoundTrip) {
  const SubmitRequest req = sample_submit();
  std::vector<std::uint8_t> frame = encode_submit(req, 42);
  const std::size_t plain_payload = frame.size() - kHeaderBytes;

  append_frame_checksum(frame);
  FrameHeader h = parse_header(frame);
  EXPECT_EQ(h.version, 2);
  EXPECT_TRUE(h.flags & kFrameHasChecksum);
  EXPECT_EQ(h.payload_len, plain_payload + kFrameChecksumBytes);

  std::span<const std::uint8_t> payload(frame.data() + kHeaderBytes,
                                        frame.size() - kHeaderBytes);
  ASSERT_TRUE(split_frame_checksum(h, payload));
  EXPECT_EQ(payload.size(), plain_payload);
  const SubmitRequest back = decode_submit(payload);
  EXPECT_EQ(back.spec.problem, req.spec.problem);
  EXPECT_EQ(back.spec.K, req.spec.K);
}

TEST(FrameChecksum, NoSuffixIsAVerbatimV1Frame) {
  std::vector<std::uint8_t> frame = encode_submit(sample_submit(), 7);
  const FrameHeader h = parse_header(frame);
  EXPECT_EQ(h.version, 1);
  EXPECT_FALSE(h.flags & kFrameHasChecksum);
  std::span<const std::uint8_t> payload(frame.data() + kHeaderBytes,
                                        frame.size() - kHeaderBytes);
  // The no-suffix case verifies trivially and leaves the span alone.
  EXPECT_TRUE(split_frame_checksum(h, payload));
  EXPECT_EQ(payload.size(), frame.size() - kHeaderBytes);
}

TEST(FrameChecksum, FlippedPayloadByteFailsVerification) {
  std::vector<std::uint8_t> frame = encode_submit(sample_submit(), 9);
  append_frame_checksum(frame);
  frame[kHeaderBytes + 3] ^= 0x10;
  const FrameHeader h = parse_header(frame);
  std::span<const std::uint8_t> payload(frame.data() + kHeaderBytes,
                                        frame.size() - kHeaderBytes);
  const std::size_t before = payload.size();
  EXPECT_FALSE(split_frame_checksum(h, payload));
  EXPECT_EQ(payload.size(), before) << "span untouched on mismatch";
}

TEST(FrameChecksum, TruncatedSuffixThrows) {
  std::vector<std::uint8_t> frame = encode_ping(1);
  FrameHeader h = parse_header(frame);
  h.flags |= kFrameHasChecksum;  // flag set, but the payload is empty
  std::span<const std::uint8_t> payload;
  EXPECT_THROW(split_frame_checksum(h, payload), WireError);
}

TEST(FrameChecksum, StripsInLifoOrderAfterTraceBlock) {
  std::vector<std::uint8_t> frame = encode_submit(sample_submit(), 11);
  obs::TraceContext ctx;
  ctx.trace_hi = 0xAABB;
  ctx.trace_lo = 0xCCDD;
  ctx.parent_span = 5;
  ctx.sampled = true;
  append_trace_context(frame, ctx);
  append_frame_checksum(frame);  // checksum covers the trace block too

  const FrameHeader h = parse_header(frame);
  EXPECT_TRUE(h.flags & kFrameHasTrace);
  EXPECT_TRUE(h.flags & kFrameHasChecksum);
  std::span<const std::uint8_t> payload(frame.data() + kHeaderBytes,
                                        frame.size() - kHeaderBytes);
  ASSERT_TRUE(split_frame_checksum(h, payload));
  const auto got = split_trace_context(h, payload);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->trace_lo, 0xCCDDu);
  EXPECT_NO_THROW(decode_submit(payload));
}

TEST(FrameChecksum, RequestIdPatchIsChecksumNeutral) {
  // The router rewrites the request id at header offset 8; the checksum
  // covers only the payload, so the patched frame must still verify.
  std::vector<std::uint8_t> frame = encode_submit(sample_submit(), 1);
  append_frame_checksum(frame);
  patch_request_id(frame, 0xDEADBEEF);
  const FrameHeader h = parse_header(frame);
  EXPECT_EQ(h.request_id, 0xDEADBEEFu);
  std::span<const std::uint8_t> payload(frame.data() + kHeaderBytes,
                                        frame.size() - kHeaderBytes);
  EXPECT_TRUE(split_frame_checksum(h, payload));
}

TEST(FrameChecksum, FingerprintPatchRecomputesTheSuffix) {
  std::vector<std::uint8_t> frame = encode_submit(sample_submit(), 1);
  append_frame_checksum(frame);
  graph::Fingerprint fp;
  fp.hi = 0x1111222233334444ull;
  fp.lo = 0x5555666677778888ull;
  patch_submit_fingerprint(frame, fp);
  const FrameHeader h = parse_header(frame);
  std::span<const std::uint8_t> payload(frame.data() + kHeaderBytes,
                                        frame.size() - kHeaderBytes);
  ASSERT_TRUE(split_frame_checksum(h, payload)) << "patch must recompute";
  const SubmitRequest back = decode_submit(payload);
  ASSERT_TRUE(back.has_fingerprint);
  EXPECT_EQ(back.fingerprint.hi, fp.hi);
  EXPECT_EQ(back.fingerprint.lo, fp.lo);
}

// ---- Interop against a live server ---------------------------------------

class ChecksumServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    svc::ServiceConfig cfg;
    cfg.threads = 1;
    service_ = std::make_unique<svc::PartitionService>(cfg);
    backend_ = std::make_unique<Backend>(*service_, Backend::Config{});
    server_ = std::make_unique<Server>(Server::Config{}, *backend_);
    backend_->attach(*server_);
    loop_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    server_->stop();
    loop_.join();
    service_->shutdown();
  }

  Client::Config client_config(bool checksum) const {
    Client::Config cc;
    cc.host = "127.0.0.1";
    cc.port = server_->port();
    cc.checksum = checksum;
    return cc;
  }

  static void send_all(int fd, const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
      ASSERT_GT(w, 0) << "send failed: " << std::strerror(errno);
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  }

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

  std::unique_ptr<svc::PartitionService> service_;
  std::unique_ptr<Backend> backend_;
  std::unique_ptr<Server> server_;
  std::thread loop_;
};

TEST_F(ChecksumServerTest, ChecksummedAndPlainClientsSeeIdenticalResults) {
  std::vector<svc::JobSpec> specs = tools::generate_workload(20, 17, 0.3);
  std::vector<SubmitRequest> requests;
  for (const svc::JobSpec& s : specs) {
    SubmitRequest req;
    req.spec = s;
    requests.push_back(req);
  }

  Client checked(client_config(/*checksum=*/true));
  std::vector<svc::JobResult> with = checked.run_batch(requests);
  EXPECT_EQ(checked.stats().checksum_failures, 0u);

  Client plain(client_config(/*checksum=*/false));
  std::vector<svc::JobResult> without = plain.run_batch(requests);

  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].status, without[i].status) << "job " << i;
    EXPECT_EQ(with[i].objective, without[i].objective) << "job " << i;
    EXPECT_EQ(with[i].cut.edges, without[i].cut.edges) << "job " << i;
    EXPECT_EQ(with[i].components, without[i].components) << "job " << i;
  }
}

TEST_F(ChecksumServerTest, ResultFramesEchoTheChecksumOnlyWhenAsked) {
  // Raw exchange: a checksummed submit must come back with a suffixed
  // result; a plain submit must come back as a v1 frame.
  UniqueFd fd = connect_tcp("127.0.0.1", server_->port());
  std::vector<std::uint8_t> checked = encode_submit(sample_submit(21), 1);
  append_frame_checksum(checked);
  std::vector<std::uint8_t> plain = encode_submit(sample_submit(22), 2);
  send_all(fd.get(), checked.data(), checked.size());
  send_all(fd.get(), plain.data(), plain.size());

  FrameBuffer fb;
  for (int i = 0; i < 2; ++i) {
    FrameHeader h;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(read_frame(fd.get(), fb, h, payload));
    ASSERT_EQ(h.type, FrameType::kResult);
    std::span<const std::uint8_t> view(payload.data(), payload.size());
    if (h.request_id == 1) {
      EXPECT_TRUE(h.flags & kFrameHasChecksum) << "suffix must be echoed";
      ASSERT_TRUE(split_frame_checksum(h, view));
    } else {
      EXPECT_EQ(h.version, 1);
      EXPECT_FALSE(h.flags & kFrameHasChecksum);
    }
    EXPECT_NO_THROW(decode_result(view));
  }
}

TEST_F(ChecksumServerTest, CorruptFrameDrawsRejectAndKeepsTheConnection) {
  UniqueFd fd = connect_tcp("127.0.0.1", server_->port());
  std::vector<std::uint8_t> frame = encode_submit(sample_submit(23), 5);
  append_frame_checksum(frame);
  frame[kHeaderBytes + 10] ^= 0x04;  // the corruption the suffix exists for
  send_all(fd.get(), frame.data(), frame.size());

  FrameBuffer fb;
  FrameHeader h;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(fd.get(), fb, h, payload));
  ASSERT_EQ(h.type, FrameType::kReject);
  EXPECT_EQ(h.request_id, 5u);
  const Reject rej = decode_reject(payload);
  EXPECT_EQ(rej.code, RejectCode::kMalformed);
  EXPECT_NE(rej.reason.find("checksum"), std::string::npos);

  // Same connection, next frame: the server must still answer.
  std::vector<std::uint8_t> ping = encode_ping(6);
  send_all(fd.get(), ping.data(), ping.size());
  ASSERT_TRUE(read_frame(fd.get(), fb, h, payload));
  EXPECT_EQ(h.type, FrameType::kPong);
  EXPECT_EQ(h.request_id, 6u);

  // And the failure is visible on the metrics surface.
  Client metrics_client(client_config(false));
  EXPECT_EQ(metrics_client.fetch_metrics().value(
                "tgp_net_checksum_failures_total", {{"shard", "0"}}),
            1.0);
}

}  // namespace
}  // namespace tgp::net
