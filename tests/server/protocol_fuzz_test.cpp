// Wire-protocol robustness: a live server must survive malformed frames,
// garbage bytes, truncated messages, and abrupt disconnects — replying with
// errors where it can and dropping the session where it cannot, but never
// crashing or wedging.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "client/meta_wire.h"
#include "client/remote_metadata.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/temp_dir.h"
#include "metad/metad.h"
#include "metadb/database.h"
#include "net/connection.h"
#include "net/frame.h"
#include "net/messages.h"
#include "server/frame_server.h"
#include "server/io_server.h"

namespace dpfs::server {
namespace {

/// A read's reply body, copied out of its frame for comparison.
Result<Bytes> ReadBack(net::ServerConnection& conn, const std::string& subfile,
                       const std::vector<net::ReadFragment>& fragments) {
  DPFS_ASSIGN_OR_RETURN(const net::ReplyFrame reply,
                        conn.Read(subfile, fragments));
  return Bytes(reply.body().begin(), reply.body().end());
}


/// One ping request as raw wire bytes: [u32 length][u32 crc32c][payload].
Bytes PingFrame() {
  const Bytes payload = {static_cast<std::uint8_t>(net::MessageType::kPing)};
  BinaryWriter frame;
  frame.WriteU32(static_cast<std::uint32_t>(payload.size()));
  frame.WriteU32(Crc32c(payload));
  frame.WriteRaw(payload);
  return std::move(frame).TakeBuffer();
}

/// One counter of the process's registry, e.g. Instrument("io_server",
/// "errors") for the I/O servers' transport errors.
std::uint64_t Instrument(const std::string& prefix, const std::string& name) {
  return metrics::GetCounter(prefix + "." + name).value();
}

class ProtocolFuzzTest : public ::testing::Test {
 protected:
  ProtocolFuzzTest() : dir_(TempDir::Create("dpfs-fuzz").value()) {}

  void SetUp() override {
    ServerOptions options;
    options.root_dir = dir_.path();
    server_ = IoServer::Start(std::move(options)).value();
  }

  void TearDown() override { failpoint::DisarmAll(); }

  /// The server is still healthy if a fresh connection can ping it.
  void ExpectServerAlive() {
    Result<net::ServerConnection> conn =
        net::ServerConnection::Connect(server_->endpoint());
    ASSERT_TRUE(conn.ok());
    EXPECT_TRUE(conn.value().Ping().ok());
  }

  /// Session teardown is asynchronous; poll the counter instead of sleeping.
  void WaitForErrors(std::uint64_t at_least) {
    for (int i = 0; i < 200; ++i) {
      if (Instrument("io_server", "errors") >= at_least) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(Instrument("io_server", "errors"), at_least);
  }

  TempDir dir_;
  std::unique_ptr<IoServer> server_;
};

TEST_F(ProtocolFuzzTest, GarbageBytesInsteadOfFrame) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  const Bytes garbage = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02};
  ASSERT_TRUE(socket.SendAll(garbage).ok());
  socket.Close();
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, FrameWithAbsurdLength) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  BinaryWriter writer;
  writer.WriteU32(0xFFFFFFFF);  // > kMaxFrameBytes
  writer.WriteU32(0);
  ASSERT_TRUE(socket.SendAll(writer.buffer()).ok());
  // The server drops the session; it must still accept new clients.
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, ValidFrameBadMessageTypeGetsErrorReply) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  // None is a MessageType: 0x7F is past the range, 8 is unassigned, 4, 6,
  // 7 and 9 are the retired stat, truncate, shutdown and rename, 15 and 18
  // the retired meta_lookup_server and meta_update_size, and 31 and 32 the
  // retired list_read and list_write.
  for (const std::uint8_t bad :
       {0x7F, 4, 6, 7, 8, 9, 15, 18, 24, 25, 26, 31, 32}) {
    const std::uint64_t bad_before = Instrument("io_server", "bad_requests");
    const Bytes payload = {bad};
    ASSERT_TRUE(net::SendFrame(socket, {payload}).ok());
    net::FrameBuffer reply;
    ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
    const net::DecodedReply decoded = net::DecodeReply(reply.bytes()).value();
    EXPECT_EQ(decoded.status.code(), StatusCode::kProtocolError);
    EXPECT_EQ(decoded.status.message(),
              "bad message type " + std::to_string(bad));
    EXPECT_EQ(Instrument("io_server", "bad_requests"), bad_before + 1);
  }
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, TruncatedRequestBodyGetsErrorReply) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  // kRead with a body that claims a subfile string longer than the frame.
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kRead));
  payload.WriteU32(1000);  // string length with no bytes behind it
  ASSERT_TRUE(net::SendFrame(socket, {payload.buffer()}).ok());
  net::FrameBuffer reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  EXPECT_FALSE(net::DecodeReply(reply.bytes()).value().status.ok());
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, MidFrameDisconnect) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  BinaryWriter writer;
  writer.WriteU32(1000);  // promise 1000 bytes
  writer.WriteU32(0);
  ASSERT_TRUE(socket.SendAll(writer.buffer()).ok());
  ASSERT_TRUE(socket.SendAll(Bytes(10, 0)).ok());  // deliver only 10
  socket.Close();
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, RandomFrameStorm) {
  const std::uint64_t accepted_before =
      Instrument("io_server", "sessions_accepted");
  SplitMix64 rng(12345);
  for (int trial = 0; trial < 40; ++trial) {
    Result<net::TcpSocket> socket =
        net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port);
    ASSERT_TRUE(socket.ok());
    // Random (but CRC-valid) frames with random payloads: the server must
    // answer every one with *something* and keep the session usable.
    const int frames = 1 + static_cast<int>(rng.NextBelow(4));
    bool session_alive = true;
    for (int f = 0; f < frames && session_alive; ++f) {
      Bytes payload(rng.NextBelow(64));
      for (std::uint8_t& byte : payload) {
        byte = static_cast<std::uint8_t>(rng.NextU64());
      }
      if (!net::SendFrame(socket.value(), {payload}).ok()) break;
      net::FrameBuffer reply;
      session_alive = net::RecvFrame(socket.value(), reply).ok();
    }
  }
  ExpectServerAlive();
  EXPECT_GE(Instrument("io_server", "sessions_accepted") - accepted_before,
            40u);
}

TEST_F(ProtocolFuzzTest, FailpointSendCutsFrameAndServerCountsTheError) {
  // net.send_all kDisconnect severs the client's stream after `arg` bytes —
  // a deterministic mid-frame disconnect instead of the hand-rolled one
  // above. The server sees a truncated frame (kProtocolError, not a clean
  // boundary close), counts it, and exits the session cleanly.
  const std::uint64_t errors_before = Instrument("io_server", "errors");
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();

  failpoint::Spec spec;
  spec.action = failpoint::Action::kDisconnect;
  spec.arg = 6;  // the 8-byte header is cut short: mid-message at recv
  spec.count = 1;
  failpoint::Arm("net.send_all", spec);

  BinaryWriter writer;
  writer.WriteU32(100);
  writer.WriteU32(0);
  const Status sent = socket.SendAll(writer.buffer());
  EXPECT_EQ(sent.code(), StatusCode::kUnavailable);  // reset at the client
  EXPECT_EQ(failpoint::HitCount("net.send_all"), 1u);

  WaitForErrors(errors_before + 1);
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, FailpointCutInsidePayloadAlsoCounts) {
  // Cut inside the payload (header fully delivered) — the server is waiting
  // on the body when the stream dies.
  const std::uint64_t errors_before = Instrument("io_server", "errors");
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();

  Bytes payload(64, 0xAB);
  BinaryWriter writer;
  writer.WriteU32(static_cast<std::uint32_t>(payload.size()));
  writer.WriteU32(Crc32c(payload));
  writer.WriteRaw(payload);

  failpoint::Spec spec;
  spec.action = failpoint::Action::kDisconnect;
  spec.arg = 8 + 10;  // full header + 10 payload bytes
  spec.count = 1;
  failpoint::Arm("net.send_all", spec);
  EXPECT_FALSE(socket.SendAll(writer.buffer()).ok());

  WaitForErrors(errors_before + 1);
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, OversizedLengthJustPastTheCapDropsSession) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  BinaryWriter writer;
  writer.WriteU32(static_cast<std::uint32_t>(net::kMaxFrameBytes + 1));
  writer.WriteU32(0);
  ASSERT_TRUE(socket.SendAll(writer.buffer()).ok());
  // The length check fails before any payload is read; session dropped.
  net::FrameBuffer reply;
  EXPECT_FALSE(net::RecvFrame(socket, reply).ok());
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, ServerDropsReplyMidSessionClientSeesUnavailable) {
  // server.before_reply kDisconnect: the request was handled but the reply
  // never leaves. The client observes a connection that died at a frame
  // boundary — kUnavailable, the retryable "fate unknown" outcome.
  const std::uint64_t errors_before = Instrument("io_server", "errors");
  net::ServerConnection conn =
      net::ServerConnection::Connect(server_->endpoint()).value();

  failpoint::Spec spec;
  spec.action = failpoint::Action::kDisconnect;
  spec.count = 1;
  failpoint::Arm("server.before_reply", spec);

  const Status ping = conn.Ping();
  EXPECT_EQ(ping.code(), StatusCode::kUnavailable);
  EXPECT_EQ(Instrument("io_server", "errors"), errors_before + 1);
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, ServerErrorReplyFailpointKeepsSessionUsable) {
  // server.before_reply kReturnError swaps the real reply for an error
  // envelope; unlike the disconnect, the session survives.
  net::ServerConnection conn =
      net::ServerConnection::Connect(server_->endpoint()).value();

  failpoint::Spec spec;
  spec.action = failpoint::Action::kReturnError;
  spec.code = StatusCode::kIoError;
  spec.message = "injected server fault";
  spec.count = 1;
  failpoint::Arm("server.before_reply", spec);

  const Status ping = conn.Ping();
  EXPECT_EQ(ping.code(), StatusCode::kIoError);
  EXPECT_EQ(ping.message(), "injected server fault");
  // Same connection, next request: back to normal.
  EXPECT_TRUE(conn.Ping().ok());
}

TEST_F(ProtocolFuzzTest, StopJoinsAllSessionsAfterFaultStorm) {
  // A storm of misbehaving sessions — truncated frames, dropped replies —
  // must leave no wedged session thread behind: Stop() joins everything
  // (the test would hang past its timeout on a leak).
  const std::uint64_t accepted_before =
      Instrument("io_server", "sessions_accepted");
  failpoint::Spec drop;
  drop.action = failpoint::Action::kDisconnect;
  drop.skip = 1;  // every session gets one good reply, then a drop
  failpoint::Arm("server.before_reply", drop);

  std::vector<net::ServerConnection> victims;
  for (int i = 0; i < 4; ++i) {
    victims.push_back(
        net::ServerConnection::Connect(server_->endpoint()).value());
    (void)victims.back().Ping();  // only the storm-wide first one succeeds
  }
  // Sessions that die mid-frame on the client side.
  std::vector<net::TcpSocket> truncated;
  for (int i = 0; i < 4; ++i) {
    truncated.push_back(
        net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port)
            .value());
    BinaryWriter writer;
    writer.WriteU32(1000);
    writer.WriteU32(0);
    ASSERT_TRUE(truncated.back().SendAll(writer.buffer()).ok());
  }
  // Sessions blocked mid-recv with nothing sent at all.
  std::vector<net::TcpSocket> idle;
  for (int i = 0; i < 4; ++i) {
    idle.push_back(
        net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port)
            .value());
  }
  // The accept loop drains the TCP backlog asynchronously; make sure every
  // session exists before asking Stop() to join them all.
  const auto accepted = [&] {
    return Instrument("io_server", "sessions_accepted") - accepted_before;
  };
  for (int i = 0; i < 200 && accepted() < 12u; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(accepted(), 12u);
  server_->Stop();  // joins every session thread or the test times out
}

TEST_F(ProtocolFuzzTest, MetricsOpcodeReturnsSnapshotWithLiveCounters) {
  // kMetrics returns the process-wide text snapshot; after real traffic the
  // server-side per-opcode counters must appear with nonzero values.
  const std::uint64_t written_before =
      Instrument("subfile_store", "bytes_written");
  net::ServerConnection conn =
      net::ServerConnection::Connect(server_->endpoint()).value();
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 2, 3};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(conn.Write("/m", std::move(writes)).ok());
  ASSERT_TRUE(ReadBack(conn, "/m", {{0, 3}}).ok());

  const Result<std::string> snapshot = conn.Metrics();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_NE(snapshot.value().find("counter io_server.requests.write "),
            std::string::npos);
  EXPECT_NE(snapshot.value().find("counter io_server.requests.read "),
            std::string::npos);
  EXPECT_NE(snapshot.value().find("histogram io_server.service_time_us.read "),
            std::string::npos);
  // The live value, which other tests in this process may have moved too.
  EXPECT_NE(snapshot.value().find("counter subfile_store.bytes_written " +
                                  std::to_string(written_before + 3) + "\n"),
            std::string::npos);
}

TEST_F(ProtocolFuzzTest, MetricsOpcodeIgnoresTrailingBodyBytes) {
  // The request body is empty by contract; extra bytes must not confuse the
  // handler or wedge the session.
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kMetrics));
  payload.WriteU32(0xABCD);  // junk the handler never reads
  ASSERT_TRUE(net::SendFrame(socket, {payload.buffer()}).ok());
  net::FrameBuffer reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  EXPECT_TRUE(net::DecodeReply(reply.bytes()).value().status.ok());
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, InterleavedGoodAndBadClients) {
  // A well-behaved client keeps working while another session misbehaves.
  net::ServerConnection good =
      net::ServerConnection::Connect(server_->endpoint()).value();
  std::vector<net::WriteFragment> writes;
  const Bytes bytes{1, 2, 3};
  writes.emplace_back(0, bytes);
  ASSERT_TRUE(good.Write("/x", std::move(writes)).ok());

  net::TcpSocket bad =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  ASSERT_TRUE(bad.SendAll(Bytes(3, 0xFF)).ok());

  EXPECT_EQ(ReadBack(good, "/x", {{0, 3}}).value(), (Bytes{1, 2, 3}));
  bad.Close();
  EXPECT_TRUE(good.Ping().ok());
}

TEST_F(ProtocolFuzzTest, ByteAtATimeDelivery) {
  // TCP may deliver a frame in arbitrarily small pieces; one byte per
  // segment is the worst case. The session must reassemble it.
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  const Bytes frame = PingFrame();
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(socket.SendAll({&byte, 1}).ok());
  }
  net::FrameBuffer reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  EXPECT_TRUE(net::DecodeReply(reply.bytes()).value().status.ok());
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, TwoFramesSplitAtEveryBoundary) {
  // Two back-to-back ping frames, split into two sends at every possible
  // byte position — covering splits inside the header, inside the payload,
  // and exactly on the frame boundary. Each split must produce exactly two
  // in-order replies.
  const Bytes one = PingFrame();
  Bytes wire = one;
  wire.insert(wire.end(), one.begin(), one.end());

  for (std::size_t split = 0; split <= wire.size(); ++split) {
    net::TcpSocket socket =
        net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port)
            .value();
    if (split > 0) {
      ASSERT_TRUE(socket.SendAll(ByteSpan(wire).first(split)).ok());
    }
    if (split < wire.size()) {
      // Give the server a chance to consume the prefix as its own segment.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ASSERT_TRUE(socket.SendAll(ByteSpan(wire).subspan(split)).ok());
    }
    for (int i = 0; i < 2; ++i) {
      net::FrameBuffer reply;
      ASSERT_TRUE(net::RecvFrame(socket, reply).ok())
          << "split=" << split << " reply " << i;
      EXPECT_TRUE(net::DecodeReply(reply.bytes()).value().status.ok());
    }
  }
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, MetadataOpcodeAimedAtIoServerGetsErrorReply) {
  // A client that dials the wrong port must get a protocol error, not a
  // crash or an OOB metric-array index: the kMeta* range is valid at the
  // envelope layer but refused by the I/O server's handler.
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  client::meta_wire::PathRequest request;
  request.path = "/lost.bin";
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kMetaLookupFile));
  request.Encode(payload);
  ASSERT_TRUE(net::SendFrame(socket, {payload.buffer()}).ok());
  net::FrameBuffer reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  const net::DecodedReply decoded = net::DecodeReply(reply.bytes()).value();
  EXPECT_EQ(decoded.status.code(), StatusCode::kProtocolError);
  EXPECT_NE(decoded.status.message().find("metadata opcode"),
            std::string::npos);
  ExpectServerAlive();
}

// --- read and write decoding (docs/WIRE_PROTOCOL.md "Read and write") -----

/// Sends one request payload on a fresh connection and returns the reply's
/// status.
Status SendRawRequest(const net::Endpoint& endpoint,
                      const BinaryWriter& payload) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", endpoint.port).value();
  DPFS_RETURN_IF_ERROR(net::SendFrame(socket, {payload.buffer()}));
  net::FrameBuffer reply;
  DPFS_RETURN_IF_ERROR(net::RecvFrame(socket, reply));
  DPFS_ASSIGN_OR_RETURN(const net::DecodedReply decoded,
                        net::DecodeReply(reply.bytes()));
  return decoded.status;
}

TEST_F(ProtocolFuzzTest, ListRoundTrip) {
  // A fragment list is the paper's combined request (§4.2): one write of
  // scattered fragments, then one read that names them out of order.
  net::ServerConnection conn =
      net::ServerConnection::Connect(server_->endpoint()).value();
  std::vector<net::WriteFragment> fragments;
  const Bytes bytes{9, 10, 11, 12, 13, 14, 15, 16};
  fragments.emplace_back(1024, bytes);
  const Bytes bytes2{1, 2, 3, 4};
  fragments.emplace_back(0, bytes2);
  const Bytes bytes3{5, 6, 7, 8};
  fragments.emplace_back(64, bytes3);
  ASSERT_TRUE(conn.Write("/lst", std::move(fragments)).ok());
  EXPECT_EQ(ReadBack(conn, "/lst", {{64, 4}, {0, 4}, {1024, 8}}).value(),
            (Bytes{5, 6, 7, 8, 1, 2, 3, 4, 9, 10, 11, 12, 13, 14, 15, 16}));
}

TEST_F(ProtocolFuzzTest, ReadWithLyingCountGetsErrorReply) {
  // A count of 2^32 - 1 backed by one fragment gets an error reply, never
  // a 64 GiB reservation.
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kRead));
  payload.WriteString("/lst");
  payload.WriteU32(0xFFFFFFFFu);
  payload.WriteU64(0);
  payload.WriteU64(8);
  EXPECT_EQ(SendRawRequest(server_->endpoint(), payload).code(),
            StatusCode::kProtocolError);
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, WriteWithLyingCountRejectedAndNothingWritten) {
  net::ServerConnection conn =
      net::ServerConnection::Connect(server_->endpoint()).value();
  std::vector<net::WriteFragment> seed;
  const Bytes bytes(16, 0xAA);
  seed.emplace_back(0, bytes);
  ASSERT_TRUE(conn.Write("/lst", std::move(seed)).ok());

  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kWrite));
  payload.WriteString("/lst");
  payload.WriteBool(false);
  payload.WriteU32(0xFFFFFFFFu);
  payload.WriteU64(0);
  payload.WriteBytes(Bytes(8, 1));  // one fragment, not 4 billion
  EXPECT_EQ(SendRawRequest(server_->endpoint(), payload).code(),
            StatusCode::kProtocolError);
  // Decode fails before any fragment reaches the store.
  EXPECT_EQ(ReadBack(conn, "/lst", {{0, 16}}).value(), Bytes(16, 0xAA));
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, ReadOfOneTebibyteGetsErrorReply) {
  // More than one reply frame can carry is refused at decode, before the
  // store sizes a buffer for it.
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kRead));
  payload.WriteString("/lst");
  payload.WriteU32(1);
  payload.WriteU64(0);
  payload.WriteU64(1ull << 40);
  EXPECT_EQ(SendRawRequest(server_->endpoint(), payload).code(),
            StatusCode::kProtocolError);
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, ReadWithWrappingLengthsRejected) {
  // 2^63 + (2^63 + 16) wraps a u64 sum to 16; the running-sum check
  // refuses it at decode.
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kRead));
  payload.WriteString("/lst");
  payload.WriteU32(2);
  payload.WriteU64(0);
  payload.WriteU64(1ull << 63);
  payload.WriteU64(0);
  payload.WriteU64((1ull << 63) + 16);
  EXPECT_EQ(SendRawRequest(server_->endpoint(), payload).code(),
            StatusCode::kProtocolError);
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, ListOpcodeFrameStorm) {
  // Random bodies behind the two fragment-list opcodes, read and write:
  // every frame draws an error reply (or a clean drop), never a crash.
  SplitMix64 rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    Result<net::TcpSocket> socket =
        net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port);
    ASSERT_TRUE(socket.ok());
    Bytes payload(1 + rng.NextBelow(48));
    for (std::uint8_t& byte : payload) {
      byte = static_cast<std::uint8_t>(rng.NextU64());
    }
    payload[0] = static_cast<std::uint8_t>(
        trial % 2 == 0 ? net::MessageType::kRead : net::MessageType::kWrite);
    if (!net::SendFrame(socket.value(), {payload}).ok()) continue;
    net::FrameBuffer reply;
    (void)net::RecvFrame(socket.value(), reply);
  }
  ExpectServerAlive();
}

TEST(ReadReplyProtocolFuzzTest, ShortReplyIsProtocolError) {
  // A server whose read reply is shorter than the requested lengths: the
  // client must refuse it, or the executor's scatter reads past the reply.
  FrameServer server({.metric_prefix = "io_server",
                      .opcodes = {net::MessageType::kRead},
                      .reply_failpoint = "server.before_reply"},
                     [](net::MessageType, BinaryReader&, Bytes& scratch) {
                       scratch = {1, 2, 3};
                       return FrameServer::Reply{
                           net::EncodeReply(Status::Ok()), scratch};
                     });
  ASSERT_TRUE(server.Start().ok());
  net::ServerConnection conn =
      net::ServerConnection::Connect(server.endpoint()).value();
  EXPECT_EQ(ReadBack(conn, "/f", {{0, 8}}).status().code(),
            StatusCode::kProtocolError);
  EXPECT_EQ(ReadBack(conn, "/f", {{0, 3}}).value(), (Bytes{1, 2, 3}));
  server.Stop();
}

// --- the metadata server under the same storm ------------------------------
//
// dpfs-metad shares the transport with the I/O servers but has its own
// dispatch; the robustness contract is identical, so it faces the same
// suite shape. ("ProtocolFuzz" in the name keeps it inside the
// asan-faults/tsan-faults preset globs.)
class MetadProtocolFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = metad::MetadService::Start(metadb::Database::OpenInMemory())
                   .value();
  }

  void TearDown() override { failpoint::DisarmAll(); }

  void ExpectServiceAlive() {
    Result<net::ServerConnection> conn =
        net::ServerConnection::Connect(service_->endpoint());
    ASSERT_TRUE(conn.ok());
    EXPECT_TRUE(conn.value().Ping().ok());
  }

  std::unique_ptr<metad::MetadService> service_;
};

TEST_F(MetadProtocolFuzzTest, GarbageBytesInsteadOfFrame) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port).value();
  const Bytes garbage = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02};
  ASSERT_TRUE(socket.SendAll(garbage).ok());
  socket.Close();
  ExpectServiceAlive();
}

TEST_F(MetadProtocolFuzzTest, TypeBytePastTheRangeGetsErrorReply) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port).value();
  // The unassigned bytes inside the range draw the same reply, and so do
  // 31 and 32, the retired list_read and list_write past it.
  for (const std::uint8_t bad :
       {net::kMaxMessageType + 1, 0x7F, 0, 4, 6, 7, 8, 9, 15, 18, 24, 25, 26,
        31, 32}) {
    const std::uint64_t bad_before = Instrument("metad", "bad_requests");
    const Bytes payload = {bad};
    ASSERT_TRUE(net::SendFrame(socket, {payload}).ok());
    net::FrameBuffer reply;
    ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
    const net::DecodedReply decoded = net::DecodeReply(reply.bytes()).value();
    EXPECT_EQ(decoded.status.code(), StatusCode::kProtocolError)
        << static_cast<int>(bad);
    EXPECT_EQ(decoded.status.message(),
              "bad message type " + std::to_string(bad));
    EXPECT_EQ(Instrument("metad", "bad_requests"), bad_before + 1);
  }
  ExpectServiceAlive();
}

TEST_F(MetadProtocolFuzzTest, TruncatedMetadataBodyGetsErrorReply) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port).value();
  // kMetaLookupFile whose path string claims more bytes than the frame has.
  BinaryWriter payload;
  payload.WriteU8(
      static_cast<std::uint8_t>(net::MessageType::kMetaLookupFile));
  payload.WriteU32(1000);  // string length with no bytes behind it
  ASSERT_TRUE(net::SendFrame(socket, {payload.buffer()}).ok());
  net::FrameBuffer reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  EXPECT_FALSE(net::DecodeReply(reply.bytes()).value().status.ok());
  ExpectServiceAlive();
}

TEST_F(MetadProtocolFuzzTest, IoOpcodeAimedAtMetadGetsErrorReply) {
  // The mirror image of the I/O-server test above: kRead is in range at
  // the envelope layer but this service does not serve it.
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port).value();
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kRead));
  payload.WriteString("/subfile");
  ASSERT_TRUE(net::SendFrame(socket, {payload.buffer()}).ok());
  net::FrameBuffer reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  const net::DecodedReply decoded = net::DecodeReply(reply.bytes()).value();
  EXPECT_EQ(decoded.status.code(), StatusCode::kProtocolError);
  EXPECT_NE(decoded.status.message().find("I/O opcode"), std::string::npos);
  ExpectServiceAlive();
}

TEST_F(MetadProtocolFuzzTest, ListOpcodeAimedAtMetadGetsErrorReply) {
  // List I/O rides on the two fragment-list opcodes, read and write; a
  // well-formed list body behind either gets the "I/O opcode" refusal from
  // metad, and no metad changes.
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port).value();
  BinaryWriter read;
  read.WriteU8(static_cast<std::uint8_t>(net::MessageType::kRead));
  read.WriteString("/subfile");
  read.WriteU32(2);
  read.WriteU64(64);
  read.WriteU64(4);
  read.WriteU64(0);
  read.WriteU64(4);
  BinaryWriter write;
  write.WriteU8(static_cast<std::uint8_t>(net::MessageType::kWrite));
  write.WriteString("/subfile");
  write.WriteBool(false);
  write.WriteU32(1);
  write.WriteU64(0);
  write.WriteBytes(Bytes(4, 1));
  for (const BinaryWriter* payload : {&read, &write}) {
    const std::uint64_t bad_before = Instrument("metad", "bad_requests");
    ASSERT_TRUE(net::SendFrame(socket, {payload->buffer()}).ok());
    net::FrameBuffer reply;
    ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
    const net::DecodedReply decoded = net::DecodeReply(reply.bytes()).value();
    EXPECT_EQ(decoded.status.code(), StatusCode::kProtocolError);
    EXPECT_NE(decoded.status.message().find("I/O opcode"), std::string::npos)
        << net::MessageTypeName(
               static_cast<net::MessageType>(payload->buffer()[0]));
    EXPECT_EQ(Instrument("metad", "bad_requests"), bad_before + 1);
  }
  ExpectServiceAlive();
}

TEST_F(MetadProtocolFuzzTest, CreateFileWithLyingCountsGetsErrorReply) {
  // meta_create_file bodies whose counts claim 2^32 - 1 entries: one in the
  // meta's array_shape, one in server_names. Each draws an error reply, not
  // a reservation sized by the count.
  client::FileMeta meta;
  meta.path = "/lying";
  meta.subfile = "/0123456789abcdef0123456789abcdef";
  meta.size_bytes = 64;
  meta.brick_bytes = 64;
  const auto send = [&](BinaryWriter& payload) {
    net::TcpSocket socket =
        net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port)
            .value();
    ASSERT_TRUE(net::SendFrame(socket, {payload.buffer()}).ok());
    net::FrameBuffer reply;
    ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
    EXPECT_EQ(net::DecodeReply(reply.bytes()).value().status.code(),
              StatusCode::kProtocolError);
  };

  BinaryWriter shape;  // FileMeta up to its array_shape count
  shape.WriteU8(static_cast<std::uint8_t>(net::MessageType::kMetaCreateFile));
  shape.WriteString(meta.path);
  shape.WriteString(meta.subfile);
  shape.WriteString(meta.owner);
  shape.WriteU32(meta.permission);
  shape.WriteU64(meta.size_bytes);
  shape.WriteU8(static_cast<std::uint8_t>(meta.level));
  shape.WriteU64(meta.element_size);
  shape.WriteU32(0xFFFFFFFFu);
  shape.WriteU64(8);  // one dimension behind the count
  send(shape);
  ExpectServiceAlive();

  BinaryWriter names;  // a whole FileMeta, then a lying server_names count
  names.WriteU8(static_cast<std::uint8_t>(net::MessageType::kMetaCreateFile));
  client::meta_wire::EncodeFileMeta(meta, names);
  names.WriteU32(0xFFFFFFFFu);
  names.WriteString("node0");
  send(names);
  ExpectServiceAlive();
  EXPECT_FALSE(
      client::RemoteMetadataManager::Connect(service_->endpoint())
          .value()
          ->FileExists("/lying")
          .value());
}

TEST_F(MetadProtocolFuzzTest, CreateFileWithHugeBrickCountGetsErrorReply) {
  // A well-formed create whose linear meta claims 2^50 one-byte bricks but
  // lists one: refused before the metad sizes a per-brick table by it.
  client::meta_wire::CreateFileRequest request;
  request.meta.path = "/huge";
  request.meta.subfile = "/0123456789abcdef0123456789abcdef";
  request.meta.size_bytes = 1ull << 50;
  request.meta.brick_bytes = 1;
  request.server_names = {"node0"};
  request.bricklists = {"0"};
  BinaryWriter body;
  request.Encode(body);
  net::ServerConnection conn =
      net::ServerConnection::Connect(service_->endpoint()).value();
  EXPECT_EQ(conn.Call(net::MessageType::kMetaCreateFile, body.buffer())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ExpectServiceAlive();
}

TEST_F(MetadProtocolFuzzTest, MidFrameDisconnect) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port).value();
  BinaryWriter writer;
  writer.WriteU32(1000);  // promise 1000 bytes
  writer.WriteU32(0);
  ASSERT_TRUE(socket.SendAll(writer.buffer()).ok());
  ASSERT_TRUE(socket.SendAll(Bytes(10, 0)).ok());  // deliver only 10
  socket.Close();
  ExpectServiceAlive();
}

TEST_F(MetadProtocolFuzzTest, TwoFramesSplitInsideTheHeader) {
  // Worst-case reassembly across the shared frame reader: a ping split in
  // the middle of its length header, then a second whole ping.
  const Bytes one = PingFrame();
  Bytes wire = one;
  wire.insert(wire.end(), one.begin(), one.end());
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port).value();
  ASSERT_TRUE(socket.SendAll(ByteSpan(wire).first(2)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(socket.SendAll(ByteSpan(wire).subspan(2)).ok());
  for (int i = 0; i < 2; ++i) {
    net::FrameBuffer reply;
    ASSERT_TRUE(net::RecvFrame(socket, reply).ok()) << "reply " << i;
    EXPECT_TRUE(net::DecodeReply(reply.bytes()).value().status.ok());
  }
  ExpectServiceAlive();
}

TEST_F(MetadProtocolFuzzTest, RandomFrameStorm) {
  const std::uint64_t accepted_before =
      Instrument("metad", "sessions_accepted");
  SplitMix64 rng(54321);
  for (int trial = 0; trial < 40; ++trial) {
    Result<net::TcpSocket> socket =
        net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port);
    ASSERT_TRUE(socket.ok());
    const int frames = 1 + static_cast<int>(rng.NextBelow(4));
    bool session_alive = true;
    for (int f = 0; f < frames && session_alive; ++f) {
      Bytes payload(rng.NextBelow(64));
      for (std::uint8_t& byte : payload) {
        byte = static_cast<std::uint8_t>(rng.NextU64());
      }
      if (!net::SendFrame(socket.value(), {payload}).ok()) break;
      net::FrameBuffer reply;
      session_alive = net::RecvFrame(socket.value(), reply).ok();
    }
  }
  ExpectServiceAlive();
  EXPECT_GE(Instrument("metad", "sessions_accepted") - accepted_before, 40u);
}

TEST_F(MetadProtocolFuzzTest, StopJoinsSessionsWithClientsMidRecv) {
  // Idle sessions blocked in RecvFrame must not wedge Stop(), and neither
  // must one blocked inside a frame: its header promises 100 bytes and only
  // 10 arrive.
  const std::uint64_t accepted_before =
      Instrument("metad", "sessions_accepted");
  std::vector<net::TcpSocket> idle;
  for (int i = 0; i < 5; ++i) {
    idle.push_back(
        net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port)
            .value());
  }
  BinaryWriter half_frame;
  half_frame.WriteU32(100);
  half_frame.WriteU32(0);
  half_frame.WriteRaw(Bytes(10, 0));
  ASSERT_TRUE(idle.back().SendAll(half_frame.buffer()).ok());
  const auto accepted = [&] {
    return Instrument("metad", "sessions_accepted") - accepted_before;
  };
  for (int i = 0; i < 200 && accepted() < 5u; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(accepted(), 5u);
  service_->Stop();  // joins every session thread or the test times out
}


}  // namespace
}  // namespace dpfs::server
