// Wire-protocol robustness: a live server must survive malformed frames,
// garbage bytes, truncated messages, and abrupt disconnects — replying with
// errors where it can and dropping the session where it cannot, but never
// crashing or wedging.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "client/meta_wire.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/temp_dir.h"
#include "metad/metad.h"
#include "metadb/sharded_database.h"
#include "net/connection.h"
#include "net/frame.h"
#include "net/messages.h"
#include "server/io_server.h"

namespace dpfs::server {
namespace {

/// One ping request as raw wire bytes: [u32 length][u32 crc32c][payload].
Bytes PingFrame() {
  const Bytes payload = net::EncodeRequest(net::MessageType::kPing, {});
  BinaryWriter frame;
  frame.WriteU32(static_cast<std::uint32_t>(payload.size()));
  frame.WriteU32(Crc32c(payload));
  frame.WriteRaw(payload);
  return std::move(frame).TakeBuffer();
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
      if (server_->stats().errors.load() >= at_least) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(server_->stats().errors.load(), at_least);
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
  const Bytes payload = {0x7F};  // not a MessageType
  ASSERT_TRUE(net::SendFrame(socket, payload).ok());
  Bytes reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  const net::DecodedReply decoded = net::DecodeReply(reply).value();
  EXPECT_EQ(decoded.status.code(), StatusCode::kProtocolError);
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, TruncatedRequestBodyGetsErrorReply) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  // kRead with a body that claims a subfile string longer than the frame.
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kRead));
  payload.WriteU32(1000);  // string length with no bytes behind it
  ASSERT_TRUE(net::SendFrame(socket, payload.buffer()).ok());
  Bytes reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  EXPECT_FALSE(net::DecodeReply(reply).value().status.ok());
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
      // Byte 0 is the message type; 7 is kShutdown, which is a *valid*
      // (deliberately unauthenticated) request — steer around it so the
      // storm exercises malformed traffic, not the admin opcode.
      if (!payload.empty() && payload[0] == 7) payload[0] = 0x77;
      if (!net::SendFrame(socket.value(), payload).ok()) break;
      Bytes reply;
      session_alive = net::RecvFrame(socket.value(), reply).ok();
    }
  }
  ExpectServerAlive();
  EXPECT_GE(server_->stats().sessions_accepted.load(), 40u);
}

TEST_F(ProtocolFuzzTest, FailpointSendCutsFrameAndServerCountsTheError) {
  // net.send_all kDisconnect severs the client's stream after `arg` bytes —
  // a deterministic mid-frame disconnect instead of the hand-rolled one
  // above. The server sees a truncated frame (kProtocolError, not a clean
  // boundary close), counts it, and exits the session cleanly.
  const std::uint64_t errors_before = server_->stats().errors.load();
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
  const std::uint64_t errors_before = server_->stats().errors.load();
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
  Bytes reply;
  EXPECT_FALSE(net::RecvFrame(socket, reply).ok());
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, ServerDropsReplyMidSessionClientSeesUnavailable) {
  // server.before_reply kDisconnect: the request was handled but the reply
  // never leaves. The client observes a connection that died at a frame
  // boundary — kUnavailable, the retryable "fate unknown" outcome.
  const std::uint64_t errors_before = server_->stats().errors.load();
  net::ServerConnection conn =
      net::ServerConnection::Connect(server_->endpoint()).value();

  failpoint::Spec spec;
  spec.action = failpoint::Action::kDisconnect;
  spec.count = 1;
  failpoint::Arm("server.before_reply", spec);

  const Status ping = conn.Ping();
  EXPECT_EQ(ping.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server_->stats().errors.load(), errors_before + 1);
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
  for (int i = 0; i < 200 && server_->stats().sessions_accepted.load() < 12u;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(server_->stats().sessions_accepted.load(), 12u);
  server_->Stop();  // joins every session thread or the test times out
}

TEST_F(ProtocolFuzzTest, MetricsOpcodeReturnsSnapshotWithLiveCounters) {
  // kMetrics returns the process-wide text snapshot; after real traffic the
  // server-side per-opcode counters must appear with nonzero values.
  net::ServerConnection conn =
      net::ServerConnection::Connect(server_->endpoint()).value();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1, 2, 3}});
  ASSERT_TRUE(conn.Write("/m", std::move(writes)).ok());
  ASSERT_TRUE(conn.Read("/m", {{0, 3}}).ok());

  const Result<std::string> snapshot = conn.Metrics();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_NE(snapshot.value().find("counter io_server.requests.write "),
            std::string::npos);
  EXPECT_NE(snapshot.value().find("counter io_server.requests.read "),
            std::string::npos);
  EXPECT_NE(snapshot.value().find("histogram io_server.service_time_us.read "),
            std::string::npos);
  EXPECT_NE(snapshot.value().find("subfile_store.bytes_written 3"),
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
  ASSERT_TRUE(net::SendFrame(socket, payload.buffer()).ok());
  Bytes reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  EXPECT_TRUE(net::DecodeReply(reply).value().status.ok());
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, InterleavedGoodAndBadClients) {
  // A well-behaved client keeps working while another session misbehaves.
  net::ServerConnection good =
      net::ServerConnection::Connect(server_->endpoint()).value();
  std::vector<net::WriteFragment> writes;
  writes.push_back({0, Bytes{1, 2, 3}});
  ASSERT_TRUE(good.Write("/x", std::move(writes)).ok());

  net::TcpSocket bad =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  ASSERT_TRUE(bad.SendAll(Bytes(3, 0xFF)).ok());

  EXPECT_EQ(good.Read("/x", {{0, 3}}).value(), (Bytes{1, 2, 3}));
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
  Bytes reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  EXPECT_TRUE(net::DecodeReply(reply).value().status.ok());
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
      Bytes reply;
      ASSERT_TRUE(net::RecvFrame(socket, reply).ok())
          << "split=" << split << " reply " << i;
      EXPECT_TRUE(net::DecodeReply(reply).value().status.ok());
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
  ASSERT_TRUE(net::SendFrame(socket, payload.buffer()).ok());
  Bytes reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  const net::DecodedReply decoded = net::DecodeReply(reply).value();
  EXPECT_EQ(decoded.status.code(), StatusCode::kProtocolError);
  EXPECT_NE(decoded.status.message().find("metadata opcode"),
            std::string::npos);
  ExpectServerAlive();
}

// --- list I/O opcodes (docs/WIRE_PROTOCOL.md "List I/O") -------------------

TEST_F(ProtocolFuzzTest, ListRoundTrip) {
  // Happy path first: a scattered list write then a list read of the same
  // extents must hand back exactly the batched payload.
  net::ServerConnection conn =
      net::ServerConnection::Connect(server_->endpoint()).value();
  const std::vector<net::ReadFragment> extents = {{0, 4}, {64, 4}, {1024, 8}};
  Bytes payload = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  ASSERT_TRUE(conn.ListWrite("/lst", extents, payload).ok());
  EXPECT_EQ(conn.ListRead("/lst", extents).value(), payload);
  // The non-list read path sees the same bytes at the scattered offsets.
  EXPECT_EQ(conn.Read("/lst", {{64, 4}}).value(), (Bytes{5, 6, 7, 8}));
}

TEST_F(ProtocolFuzzTest, ListReadTruncatedExtentListGetsErrorReply) {
  // A count that promises more extents than the body carries must be
  // rejected by the length guard, never allocated for.
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kListRead));
  payload.WriteString("/lst");
  payload.WriteU32(0xFFFFFFFFu);  // claims 4 billion extents
  payload.WriteU64(0);
  payload.WriteU64(8);  // ...but carries one
  ASSERT_TRUE(net::SendFrame(socket, payload.buffer()).ok());
  Bytes reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  EXPECT_EQ(net::DecodeReply(reply).value().status.code(),
            StatusCode::kProtocolError);
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, ListReadOverlappingExtentsRejected) {
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kListRead));
  payload.WriteString("/lst");
  payload.WriteU32(2);
  payload.WriteU64(0);
  payload.WriteU64(16);
  payload.WriteU64(8);  // starts inside the previous extent
  payload.WriteU64(16);
  ASSERT_TRUE(net::SendFrame(socket, payload.buffer()).ok());
  Bytes reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  const net::DecodedReply decoded = net::DecodeReply(reply).value();
  EXPECT_EQ(decoded.status.code(), StatusCode::kProtocolError);
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, ListWritePayloadMismatchRejectedAndNothingWritten) {
  // The payload must equal the extent sum; a short payload is refused at
  // decode, before any byte reaches the store.
  net::ServerConnection conn =
      net::ServerConnection::Connect(server_->endpoint()).value();
  std::vector<net::WriteFragment> seed;
  seed.push_back({0, Bytes(16, 0xAA)});
  ASSERT_TRUE(conn.Write("/lst", std::move(seed)).ok());

  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", server_->endpoint().port).value();
  BinaryWriter payload;
  payload.WriteU8(static_cast<std::uint8_t>(net::MessageType::kListWrite));
  payload.WriteString("/lst");
  payload.WriteU8(0);  // sync = false
  payload.WriteU32(1);
  payload.WriteU64(0);
  payload.WriteU64(8);            // extent wants 8 bytes
  payload.WriteBytes(Bytes(3, 1));  // payload carries 3
  ASSERT_TRUE(net::SendFrame(socket, payload.buffer()).ok());
  Bytes reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  EXPECT_EQ(net::DecodeReply(reply).value().status.code(),
            StatusCode::kProtocolError);
  EXPECT_EQ(conn.Read("/lst", {{0, 16}}).value(), Bytes(16, 0xAA));
  ExpectServerAlive();
}

TEST_F(ProtocolFuzzTest, ListOpcodeFrameStorm) {
  // Random bodies behind the two list opcodes specifically: every frame
  // must draw an error reply (or a clean drop), never a crash.
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
        trial % 2 == 0 ? net::MessageType::kListRead
                       : net::MessageType::kListWrite);
    if (!net::SendFrame(socket.value(), payload).ok()) continue;
    Bytes reply;
    (void)net::RecvFrame(socket.value(), reply);
  }
  ExpectServerAlive();
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
    std::unique_ptr<metadb::ShardedDatabase> db =
        metadb::ShardedDatabase::OpenInMemory(2).value();
    service_ = metad::MetadService::Start(std::move(db)).value();
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
  for (const std::uint8_t bad :
       {static_cast<std::uint8_t>(net::kMaxMessageType + 1),
        static_cast<std::uint8_t>(0x7F), static_cast<std::uint8_t>(0)}) {
    const Bytes payload = {bad};
    ASSERT_TRUE(net::SendFrame(socket, payload).ok());
    Bytes reply;
    ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
    EXPECT_EQ(net::DecodeReply(reply).value().status.code(),
              StatusCode::kProtocolError)
        << static_cast<int>(bad);
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
  ASSERT_TRUE(net::SendFrame(socket, payload.buffer()).ok());
  Bytes reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  EXPECT_FALSE(net::DecodeReply(reply).value().status.ok());
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
  ASSERT_TRUE(net::SendFrame(socket, payload.buffer()).ok());
  Bytes reply;
  ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
  const net::DecodedReply decoded = net::DecodeReply(reply).value();
  EXPECT_EQ(decoded.status.code(), StatusCode::kProtocolError);
  EXPECT_NE(decoded.status.message().find("I/O opcode"), std::string::npos);
  ExpectServiceAlive();
}

TEST_F(MetadProtocolFuzzTest, ListOpcodeAimedAtMetadGetsErrorReply) {
  // The list I/O opcodes are in range at the envelope layer but metad does
  // not serve them: same "I/O opcode" refusal as kRead, no metad changes.
  net::TcpSocket socket =
      net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port).value();
  for (const net::MessageType type :
       {net::MessageType::kListRead, net::MessageType::kListWrite}) {
    BinaryWriter payload;
    payload.WriteU8(static_cast<std::uint8_t>(type));
    payload.WriteString("/subfile");
    ASSERT_TRUE(net::SendFrame(socket, payload.buffer()).ok());
    Bytes reply;
    ASSERT_TRUE(net::RecvFrame(socket, reply).ok());
    const net::DecodedReply decoded = net::DecodeReply(reply).value();
    EXPECT_EQ(decoded.status.code(), StatusCode::kProtocolError);
    EXPECT_NE(decoded.status.message().find("I/O opcode"), std::string::npos)
        << net::MessageTypeName(type);
  }
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
    Bytes reply;
    ASSERT_TRUE(net::RecvFrame(socket, reply).ok()) << "reply " << i;
    EXPECT_TRUE(net::DecodeReply(reply).value().status.ok());
  }
  ExpectServiceAlive();
}

TEST_F(MetadProtocolFuzzTest, RandomFrameStorm) {
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
      // Steer around kShutdown (7), the valid admin opcode, like the
      // I/O-server storm does.
      if (!payload.empty() && payload[0] == 7) payload[0] = 0x77;
      if (!net::SendFrame(socket.value(), payload).ok()) break;
      Bytes reply;
      session_alive = net::RecvFrame(socket.value(), reply).ok();
    }
  }
  ExpectServiceAlive();
  EXPECT_GE(service_->stats().sessions_accepted.load(), 40u);
}

TEST_F(MetadProtocolFuzzTest, StopJoinsSessionsWithClientsMidRecv) {
  // Idle sessions blocked in RecvFrame must not wedge Stop().
  std::vector<net::TcpSocket> idle;
  for (int i = 0; i < 4; ++i) {
    idle.push_back(
        net::TcpSocket::Connect("127.0.0.1", service_->endpoint().port)
            .value());
  }
  for (int i = 0; i < 200 && service_->stats().sessions_accepted.load() < 4u;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(service_->stats().sessions_accepted.load(), 4u);
  service_->Stop();  // joins every session thread or the test times out
}


}  // namespace
}  // namespace dpfs::server
