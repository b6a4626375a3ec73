// Real loopback TCP: sockets, framing, CRC detection.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/failpoint.h"
#include "net/connection.h"
#include "net/frame.h"
#include "net/socket.h"

namespace dpfs::net {
namespace {

TEST(SocketTest, ConnectToListener) {
  TcpListener listener = TcpListener::Bind(0).value();
  EXPECT_GT(listener.port(), 0u);

  std::thread server([&listener] {
    const Result<TcpSocket> accepted = listener.Accept();
    EXPECT_TRUE(accepted.ok());
  });
  const Result<TcpSocket> client =
      TcpSocket::Connect("127.0.0.1", listener.port());
  EXPECT_TRUE(client.ok());
  server.join();
}

TEST(SocketTest, ConnectToClosedPortFails) {
  // Bind then immediately close to get a (very likely) dead port.
  std::uint16_t port = 0;
  {
    TcpListener listener = TcpListener::Bind(0).value();
    port = listener.port();
  }
  const Result<TcpSocket> client = TcpSocket::Connect("127.0.0.1", port);
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

TEST(SocketTest, SendAllRecvExactRoundTrip) {
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread server([&listener] {
    TcpSocket conn = listener.Accept().value();
    Bytes buf(1 << 20);
    ASSERT_TRUE(conn.RecvExact({buf.data(), buf.size()}).ok());
    // Echo back.
    ASSERT_TRUE(conn.SendAll(buf).ok());
  });

  TcpSocket client = TcpSocket::Connect("localhost", listener.port()).value();
  Bytes data(1 << 20);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(client.SendAll(data).ok());
  Bytes echoed(data.size());
  ASSERT_TRUE(client.RecvExact({echoed.data(), echoed.size()}).ok());
  EXPECT_EQ(echoed, data);
  server.join();
}

TEST(SocketTest, CleanPeerCloseIsUnavailable) {
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread server([&listener] {
    TcpSocket conn = listener.Accept().value();
    conn.Close();
  });
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  Bytes buf(16);
  const Status received = client.RecvExact({buf.data(), buf.size()});
  EXPECT_FALSE(received.ok());
  EXPECT_EQ(received.code(), StatusCode::kUnavailable);
  server.join();
}

TEST(FrameTest, RoundTripSmallAndLarge) {
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread server([&listener] {
    TcpSocket conn = listener.Accept().value();
    // One buffer for every frame, as a server session keeps: a frame
    // smaller than the one before must come back alone and exact.
    FrameBuffer payload;
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(RecvFrame(conn, payload).ok());
      ASSERT_TRUE(SendFrame(conn, {payload.bytes()}).ok());  // echo
    }
  });

  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  for (const std::size_t size : {std::size_t{0}, std::size_t{17},
                                 std::size_t{3 << 20}, std::size_t{16}}) {
    Bytes payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i + size);
    }
    ASSERT_TRUE(SendFrame(client, {payload}).ok());
    FrameBuffer echoed;
    ASSERT_TRUE(RecvFrame(client, echoed).ok());
    EXPECT_EQ(Bytes(echoed.bytes().begin(), echoed.bytes().end()), payload);
    // The same payload sent as three parts (one empty) is the same frame:
    // the receiver's checksum over the concatenation matches.
    const ByteSpan whole(payload);
    const std::size_t cut = size / 3;
    ASSERT_TRUE(SendFrame(client, {whole.first(cut), ByteSpan{},
                                   whole.subspan(cut)})
                    .ok());
    ASSERT_TRUE(RecvFrame(client, echoed).ok());
    EXPECT_EQ(Bytes(echoed.bytes().begin(), echoed.bytes().end()), payload);
  }
  server.join();
}

TEST(FrameTest, CorruptedPayloadDetected) {
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread server([&listener] {
    TcpSocket conn = listener.Accept().value();
    // Hand-craft a frame with a wrong CRC.
    BinaryWriter writer;
    writer.WriteU32(4);
    writer.WriteU32(0xBAD0BAD0);  // wrong checksum
    writer.WriteRaw(AsBytes("abcd"));
    ASSERT_TRUE(conn.SendAll(writer.buffer()).ok());
  });
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  FrameBuffer payload;
  const Status received = RecvFrame(client, payload);
  EXPECT_FALSE(received.ok());
  EXPECT_EQ(received.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(payload.bytes().empty());
  server.join();
}

TEST(FrameTest, OversizeFrameRejectedOnSendAndRecv) {
  // Send side refuses without touching the socket.
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread server([&listener] {
    TcpSocket conn = listener.Accept().value();
    // Claim an absurd length; the receiver must bail before allocating.
    BinaryWriter writer;
    writer.WriteU32(0xFFFFFFFF);
    writer.WriteU32(0);
    ASSERT_TRUE(conn.SendAll(writer.buffer()).ok());
  });
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  FrameBuffer payload;
  const Status received = RecvFrame(client, payload);
  EXPECT_FALSE(received.ok());
  EXPECT_EQ(received.code(), StatusCode::kProtocolError);
  server.join();
}

TEST(ListenerTest, CloseUnblocksAccept) {
  TcpListener listener = TcpListener::Bind(0).value();
  std::thread acceptor([&listener] {
    const Result<TcpSocket> accepted = listener.Accept();
    EXPECT_FALSE(accepted.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.Close();
  acceptor.join();
}

TEST(EndpointTest, ToStringFormat) {
  const Endpoint endpoint{"127.0.0.1", 9090};
  EXPECT_EQ(endpoint.ToString(), "127.0.0.1:9090");
}

// ---------------------------------------------------------------------------
// The send failpoint against a frame sent in parts.

class NonBlockingFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(NonBlockingFailpointTest, SendFailpointFiresOncePerFrame) {
  // A frame leaves in one SendAll, so net.send_all fires once for it, and
  // a short send's byte count runs from the header's first byte across
  // every part: 8 header bytes + 2 of the first part + 1 of the second.
  TcpListener listener = TcpListener::Bind(0).value();
  TcpSocket client = TcpSocket::Connect("127.0.0.1", listener.port()).value();
  TcpSocket served = listener.Accept().value();
  const Bytes first = {1, 2};
  const Bytes second = {3, 4, 5};

  ASSERT_TRUE(SendFrame(client, {first, second}).ok());
  EXPECT_EQ(failpoint::HitCount("net.send_all"), 0u);  // not armed yet
  FrameBuffer payload;
  ASSERT_TRUE(RecvFrame(served, payload).ok());
  EXPECT_EQ(Bytes(payload.bytes().begin(), payload.bytes().end()),
            (Bytes{1, 2, 3, 4, 5}));

  failpoint::Spec cut;
  cut.action = failpoint::Action::kShortIo;
  cut.arg = 8 + 3;
  failpoint::Arm("net.send_all", cut);
  EXPECT_EQ(SendFrame(client, {first, second}).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(failpoint::HitCount("net.send_all"), 1u);
  failpoint::DisarmAll();

  // The cut stream holds exactly 11 bytes, then the close.
  Bytes received(11);
  ASSERT_TRUE(served.RecvExact(MutableByteSpan(received)).ok());
  EXPECT_EQ(Bytes(received.begin() + 8, received.end()), (Bytes{1, 2, 3}));
  std::uint8_t past_the_cut = 0;
  EXPECT_EQ(served.RecvExact({&past_the_cut, 1}).code(),
            StatusCode::kUnavailable);
}

}  // namespace
}  // namespace dpfs::net
