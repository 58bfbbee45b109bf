// Channel tests: local pair semantics, tag-selective receive, TCP loopback,
// matrix serialization, traffic stats, close/error behaviour, receive
// deadlines, and the hardened TCP framing (header validation, accept
// timeout, reconnect-and-resume).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/crc32.hpp"
#include "net/buffer_pool.hpp"
#include "net/local_channel.hpp"
#include "net/serialize.hpp"
#include "net/tcp_channel.hpp"
#include "net/wire_buf.hpp"
#include "test_util.hpp"

namespace psml::net {
namespace {

using psml::test::expect_near;
using psml::test::random_matrix;

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> init) {
  return std::vector<std::uint8_t>(init);
}

TEST(LocalChannel, SendRecvRoundTrip) {
  auto pair = LocalChannel::make_pair();
  pair.a->send(7, bytes({1, 2, 3}));
  const Message m = pair.b->recv(7);
  EXPECT_EQ(m.tag, 7u);
  EXPECT_EQ(m.payload, bytes({1, 2, 3}));
}

TEST(LocalChannel, BothDirections) {
  auto pair = LocalChannel::make_pair();
  pair.a->send(1, bytes({10}));
  pair.b->send(2, bytes({20}));
  EXPECT_EQ(pair.b->recv(1).payload, bytes({10}));
  EXPECT_EQ(pair.a->recv(2).payload, bytes({20}));
}

TEST(LocalChannel, TagSelectiveReceiveBuffersOthers) {
  auto pair = LocalChannel::make_pair();
  pair.a->send(1, bytes({1}));
  pair.a->send(2, bytes({2}));
  pair.a->send(3, bytes({3}));
  // Receive out of order; earlier messages are buffered, not lost.
  EXPECT_EQ(pair.b->recv(3).payload, bytes({3}));
  EXPECT_EQ(pair.b->recv(1).payload, bytes({1}));
  EXPECT_EQ(pair.b->recv(2).payload, bytes({2}));
}

TEST(LocalChannel, RecvAnyReturnsInOrder) {
  auto pair = LocalChannel::make_pair();
  pair.a->send(5, bytes({5}));
  pair.a->send(6, bytes({6}));
  EXPECT_EQ(pair.b->recv_any().tag, 5u);
  EXPECT_EQ(pair.b->recv_any().tag, 6u);
}

TEST(LocalChannel, FifoPerTag) {
  auto pair = LocalChannel::make_pair();
  pair.a->send(9, bytes({1}));
  pair.a->send(9, bytes({2}));
  EXPECT_EQ(pair.b->recv(9).payload, bytes({1}));
  EXPECT_EQ(pair.b->recv(9).payload, bytes({2}));
}

TEST(LocalChannel, CloseUnblocksReceiver) {
  auto pair = LocalChannel::make_pair();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pair.a->close();
  });
  EXPECT_THROW(pair.b->recv(1), NetworkError);
  closer.join();
}

TEST(LocalChannel, SendAfterCloseThrows) {
  auto pair = LocalChannel::make_pair();
  pair.a->close();
  EXPECT_THROW(pair.a->send(1, bytes({1})), NetworkError);
}

TEST(LocalChannel, StatsCountTraffic) {
  auto pair = LocalChannel::make_pair();
  pair.a->send(1, bytes({1, 2, 3, 4}));
  pair.b->recv(1);
  EXPECT_EQ(pair.a->stats().bytes_sent.load(), 4u);
  EXPECT_EQ(pair.a->stats().messages_sent.load(), 1u);
  EXPECT_EQ(pair.b->stats().bytes_received.load(), 4u);
  EXPECT_EQ(pair.b->stats().messages_received.load(), 1u);
}

TEST(LocalChannel, BlockingRecvWaitsForMessage) {
  auto pair = LocalChannel::make_pair();
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    pair.a->send(42, bytes({9}));
  });
  const Message m = pair.b->recv(42);  // must block until sender runs
  EXPECT_EQ(m.payload, bytes({9}));
  sender.join();
}

TEST(Serialize, MatrixF32RoundTrip) {
  const MatrixF m = random_matrix(17, 23, 71);
  const auto buf = encode_matrix(m);
  EXPECT_EQ(peek_kind(buf.data(), buf.size()), PayloadKind::kDenseF32);
  const MatrixF back = decode_matrix_f32(buf.data(), buf.size());
  expect_near(m, back, 0.0, "f32 round trip");
}

TEST(Serialize, MatrixU64RoundTrip) {
  MatrixU64 m(5, 7);
  rng::fill_uniform_u64_par(m, 3);
  const auto buf = encode_matrix(m);
  const MatrixU64 back = decode_matrix_u64(buf.data(), buf.size());
  EXPECT_TRUE(m == back);
}

TEST(Serialize, CsrPayloadDecodesToDense) {
  MatrixF m(6, 6, 0.0f);
  m(1, 2) = 3.5f;
  m(4, 0) = -1.0f;
  const auto csr = sparse::Csr::from_dense(m);
  const auto buf = encode_csr(csr);
  EXPECT_EQ(peek_kind(buf.data(), buf.size()), PayloadKind::kCsrF32);
  expect_near(decode_matrix_f32(buf.data(), buf.size()), m, 0.0, "csr");
}

TEST(Serialize, MalformedPayloadThrows) {
  std::vector<std::uint8_t> tiny(3, 0);
  EXPECT_THROW(decode_matrix_f32(tiny.data(), tiny.size()), ProtocolError);

  const MatrixF m = random_matrix(4, 4, 72);
  auto buf = encode_matrix(m);
  buf.pop_back();
  EXPECT_THROW(decode_matrix_f32(buf.data(), buf.size()), ProtocolError);

  // Wrong-kind decode.
  const auto fbuf = encode_matrix(m);
  EXPECT_THROW(decode_matrix_u64(fbuf.data(), fbuf.size()), ProtocolError);
}

TEST(Serialize, ChannelHelpers) {
  auto pair = LocalChannel::make_pair();
  const MatrixF m = random_matrix(9, 4, 73);
  send_matrix(*pair.a, 11, m);
  expect_near(recv_matrix_f32(*pair.b, 11), m, 0.0, "channel matrix");
}

TEST(LocalChannel, ConcurrentTaggedRecvDoesNotHoldLockAcrossBlock) {
  // Regression test for the cross-party double-pipeline deadlock: two
  // threads per endpoint, each waiting for a tag whose sender is the peer's
  // *other* thread. If recv() held its lock while blocked on the transport,
  // this cycle deadlocks:
  //   A.t1 waits 1 (sent by B.t2 after B.t2 gets 4)
  //   B.t1 waits 3 (sent by A.t2 after A.t2 gets 2)
  //   A.t2 needs the lock held by A.t1 to read its already-arrived 2
  //   B.t2 needs the lock held by B.t1 to read its already-arrived 4
  auto pair = LocalChannel::make_pair();
  pair.a->send(4, bytes({4}));  // for B.t2
  pair.b->send(2, bytes({2}));  // for A.t2

  std::atomic<int> done{0};
  std::thread a1([&] {
    EXPECT_EQ(pair.a->recv(1).payload, bytes({1}));
    done.fetch_add(1);
  });
  std::thread b1([&] {
    EXPECT_EQ(pair.b->recv(3).payload, bytes({3}));
    done.fetch_add(1);
  });
  // Give t1 threads time to enter recv and become drainers.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread a2([&] {
    EXPECT_EQ(pair.a->recv(2).payload, bytes({2}));
    pair.a->send(3, bytes({3}));
    done.fetch_add(1);
  });
  std::thread b2([&] {
    EXPECT_EQ(pair.b->recv(4).payload, bytes({4}));
    pair.b->send(1, bytes({1}));
    done.fetch_add(1);
  });
  a1.join();
  b1.join();
  a2.join();
  b2.join();
  EXPECT_EQ(done.load(), 4);
}

TEST(LocalChannel, ManyThreadsManyTagsOneChannel) {
  // N threads per side, each exchanging on its own tag, interleaved.
  auto pair = LocalChannel::make_pair();
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const Tag tag = static_cast<Tag>(100 + t);
        pair.a->send(tag, bytes({static_cast<std::uint8_t>(r)}));
        const auto m = pair.a->recv(tag);
        if (m.payload[0] != static_cast<std::uint8_t>(r)) errors.fetch_add(1);
      }
    });
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const Tag tag = static_cast<Tag>(100 + t);
        const auto m = pair.b->recv(tag);
        if (m.payload[0] != static_cast<std::uint8_t>(r)) errors.fetch_add(1);
        pair.b->send(tag, m.payload);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(TcpChannel, LoopbackRoundTrip) {
  const std::uint16_t port = 39251;
  std::shared_ptr<Channel> server;
  std::thread listener([&] { server = TcpChannel::listen(port); });
  auto client = TcpChannel::connect("127.0.0.1", port, 5.0);
  listener.join();

  const MatrixF m = random_matrix(31, 17, 74);
  send_matrix(*client, 5, m);
  expect_near(recv_matrix_f32(*server, 5), m, 0.0, "tcp matrix");

  // Reverse direction + tag reorder across TCP.
  server->send(8, bytes({8}));
  server->send(9, bytes({9}));
  EXPECT_EQ(client->recv(9).payload, bytes({9}));
  EXPECT_EQ(client->recv(8).payload, bytes({8}));
}

TEST(TcpChannel, LargeTransfer) {
  const std::uint16_t port = 39252;
  std::shared_ptr<Channel> server;
  std::thread listener([&] { server = TcpChannel::listen(port); });
  auto client = TcpChannel::connect("127.0.0.1", port, 5.0);
  listener.join();

  const MatrixF m = random_matrix(512, 512, 75);  // 1 MiB payload
  std::thread sender([&] { send_matrix(*client, 1, m); });
  expect_near(recv_matrix_f32(*server, 1), m, 0.0, "tcp 1MiB");
  sender.join();
}

TEST(TcpChannel, PeerCloseRaises) {
  const std::uint16_t port = 39253;
  std::shared_ptr<Channel> server;
  std::thread listener([&] { server = TcpChannel::listen(port); });
  auto client = TcpChannel::connect("127.0.0.1", port, 5.0);
  listener.join();
  client->close();
  EXPECT_THROW(server->recv(1), NetworkError);
}

TEST(TcpChannel, ConnectTimeoutOnDeadPort) {
  EXPECT_THROW(TcpChannel::connect("127.0.0.1", 39254, 0.3), NetworkError);
}

// --------------------------------------------------------------------------
// Receive deadlines

TEST(LocalChannel, RecvDeadlineThrowsTimeoutErrorAndChannelSurvives) {
  auto pair = LocalChannel::make_pair();
  EXPECT_THROW(
      pair.b->recv(1, deadline_after(std::chrono::milliseconds(50))),
      TimeoutError);
  // A timeout is not fatal: the channel keeps working afterwards.
  pair.a->send(1, bytes({1}));
  EXPECT_EQ(pair.b->recv(1).payload, bytes({1}));
}

TEST(LocalChannel, DefaultTimeoutAppliesToPlainRecv) {
  auto pair = LocalChannel::make_pair();
  pair.b->set_default_timeout(std::chrono::milliseconds(50));
  EXPECT_THROW(pair.b->recv(1), TimeoutError);
  EXPECT_THROW(pair.b->recv_any(), TimeoutError);
  // Messages that are already buffered beat the deadline.
  pair.a->send(2, bytes({2}));
  EXPECT_EQ(pair.b->recv(2).payload, bytes({2}));
  pair.b->set_default_timeout(std::chrono::milliseconds(0));  // disable again
}

TEST(LocalChannel, WaiterTimesOutWhileAnotherThreadDrains) {
  // The drainer blocks forever on tag 1; a second thread waiting on tag 2
  // with a deadline must still get its TimeoutError (the deadline applies
  // to the reorder-buffer wait, not just the transport read).
  auto pair = LocalChannel::make_pair();
  std::thread drainer([&] {
    EXPECT_EQ(pair.b->recv(1).payload, bytes({1}));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_THROW(
      pair.b->recv(2, deadline_after(std::chrono::milliseconds(60))),
      TimeoutError);
  pair.a->send(1, bytes({1}));
  drainer.join();
}

// --------------------------------------------------------------------------
// recv_any vs the tag-pending reorder buffer

TEST(LocalChannel, RecvAnyDrainsTagPendingBufferFirst) {
  // recv(3) buffers tags 1 and 2 while hunting for 3; a later recv_any
  // must return those buffered messages, in arrival order, before reading
  // the transport again.
  auto pair = LocalChannel::make_pair();
  pair.a->send(1, bytes({1}));
  pair.a->send(2, bytes({2}));
  pair.a->send(3, bytes({3}));
  EXPECT_EQ(pair.b->recv(3).payload, bytes({3}));
  EXPECT_EQ(pair.b->recv_any().tag, 1u);
  EXPECT_EQ(pair.b->recv_any().tag, 2u);
}

TEST(LocalChannel, CloseFailsAllPendingWaiters) {
  // Several threads parked on different tags: close() must wake every one
  // of them with NetworkError, not just the current drainer.
  auto pair = LocalChannel::make_pair();
  std::atomic<int> network_errors{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 3; ++t) {
    waiters.emplace_back([&, t] {
      try {
        pair.b->recv(static_cast<Tag>(100 + t));
      } catch (const NetworkError&) {
        network_errors.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pair.a->close();
  for (auto& th : waiters) th.join();
  EXPECT_EQ(network_errors.load(), 3);
}

// --------------------------------------------------------------------------
// Hardened TCP framing

TEST(TcpChannel, AcceptTimeoutSurfacesAsTimeoutError) {
  TcpOptions opts;
  opts.accept_timeout_sec = 0.2;
  EXPECT_THROW(TcpChannel::listen(39257, opts), TimeoutError);
}

TEST(TcpChannel, ConnectRetriesUntilListenerAppears) {
  // The listener starts late; connect()'s backoff loop must keep redialing
  // instead of giving up on the first ECONNREFUSED. The port sits below the
  // ephemeral range: redialing an ephemeral port can self-connect
  // (simultaneous open) and steal it from the late listener's bind.
  const std::uint16_t port = 19258;
  std::shared_ptr<Channel> server;
  std::thread listener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server = TcpChannel::listen(port);
  });
  auto client = TcpChannel::connect("127.0.0.1", port, 5.0);
  listener.join();
  client->send(1, bytes({1}));
  EXPECT_EQ(server->recv(1).payload, bytes({1}));
}

namespace {

// Mirrors of the private wire structs in tcp_channel.cpp, used to speak the
// protocol from a raw socket and then violate it.
struct RawHello {
  std::uint32_t magic = 0x484d5350u;  // "PSMH"
  std::uint32_t version = 2;
  std::uint64_t session_id = 0;
  std::uint64_t last_recv_seq = 0;
  std::uint32_t flags = 0;
  std::uint32_t crc = 0;
};
static_assert(sizeof(RawHello) == 32);

struct RawFrameHeader {
  std::uint32_t magic = 0x324d5350u;  // "PSM2"
  std::uint32_t tag = 0;
  std::uint64_t seq = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
  std::uint32_t header_crc = 0;
};
static_assert(sizeof(RawFrameHeader) == 32);

// Connects a raw socket to a TcpChannel server on `port` (retrying while
// the listener thread is still binding) and completes the hello handshake,
// returning the connected fd.
int raw_handshake_client(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int fd = -1;
  for (int attempt = 0; attempt < 200; ++attempt) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(fd, 0) << "raw client never reached the listener";
  RawHello hello;
  hello.crc = crc32(&hello, sizeof(hello) - sizeof(std::uint32_t));
  EXPECT_EQ(::send(fd, &hello, sizeof(hello), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(hello)));
  RawHello server_hello{};
  EXPECT_EQ(::recv(fd, &server_hello, sizeof(server_hello), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(server_hello)));
  return fd;
}

}  // namespace

TEST(TcpChannel, CorruptFrameHeaderRejectedCleanly) {
  const std::uint16_t port = 39259;
  std::shared_ptr<Channel> server;
  std::thread listener([&] { server = TcpChannel::listen(port); });
  const int fd = raw_handshake_client(port);
  listener.join();

  std::uint8_t garbage[32];
  std::fill(std::begin(garbage), std::end(garbage), 0xab);
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));
  EXPECT_THROW(server->recv(1), NetworkError);
  ::close(fd);
}

TEST(TcpChannel, OversizedFrameHeaderRejectedWithoutAllocation) {
  // A header whose CRC checks out but that announces an absurd payload must
  // be refused by the PSML_NET_MAX_FRAME cap before any allocation.
  const std::uint16_t port = 39260;
  std::shared_ptr<Channel> server;
  std::thread listener([&] { server = TcpChannel::listen(port); });
  const int fd = raw_handshake_client(port);
  listener.join();

  RawFrameHeader h;
  h.tag = 1;
  h.seq = 1;
  h.payload_len = 1ull << 40;  // 1 TiB
  h.payload_crc = 0;
  h.header_crc = crc32(&h, sizeof(h) - sizeof(std::uint32_t));
  ASSERT_EQ(::send(fd, &h, sizeof(h), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(h)));
  try {
    server->recv(1);
    FAIL() << "oversized frame was accepted";
  } catch (const NetworkError& e) {
    EXPECT_NE(std::string(e.what()).find("PSML_NET_MAX_FRAME"),
              std::string::npos);
  }
  ::close(fd);
}

TEST(TcpChannel, ReconnectAndResumeAfterInjectedDisconnect) {
  const std::uint16_t port = 39261;
  TcpOptions opts;
  opts.resume = true;
  opts.backoff_base_ms = 5.0;
  opts.backoff_max_ms = 100.0;

  std::shared_ptr<Channel> server;
  std::thread listener([&] { server = TcpChannel::listen(port, opts); });
  auto client = TcpChannel::connect("127.0.0.1", port, opts);
  listener.join();

  client->send(1, bytes({1}));
  EXPECT_EQ(server->recv(1).payload, bytes({1}));
  server->send(2, bytes({2}));
  EXPECT_EQ(client->recv(2).payload, bytes({2}));

  auto* tcp_client = dynamic_cast<TcpChannel*>(client.get());
  ASSERT_NE(tcp_client, nullptr);
  const std::uint64_t session_before = tcp_client->session_id();
  tcp_client->inject_disconnect();

  // Traffic after the break must flow again over the resumed session. The
  // client redials while the server re-accepts inside its recv.
  std::thread sender([&] { client->send(3, bytes({3})); });
  EXPECT_EQ(server->recv(3).payload, bytes({3}));
  sender.join();
  std::thread replier([&] { server->send(4, bytes({4, 4})); });
  EXPECT_EQ(client->recv(4).payload, bytes({4, 4}));
  replier.join();

  EXPECT_GE(tcp_client->reconnect_count(), 1);
  EXPECT_EQ(tcp_client->session_id(), session_before);
}

TEST(TcpChannel, DisconnectWithoutResumeFailsFast) {
  const std::uint16_t port = 39262;
  std::shared_ptr<Channel> server;
  std::thread listener([&] { server = TcpChannel::listen(port); });
  auto client = TcpChannel::connect("127.0.0.1", port, 5.0);
  listener.join();

  auto* tcp_client = dynamic_cast<TcpChannel*>(client.get());
  ASSERT_NE(tcp_client, nullptr);
  tcp_client->inject_disconnect();
  EXPECT_THROW(server->recv(1), NetworkError);
}

// ---------------------------------------------------------------------------
// Zero-copy data path: WireBuf fragments, the buffer pool, CRC32C
// negotiation, and the coalesced E/F pair frame.

TEST(WireBuf, FragmentChainedChecksumMatchesFlatCrc) {
  // The same logical payload, once flat and once as three fragments of
  // different ownership strengths; the chained checksum must equal the
  // one-shot CRC over the flat bytes for both polynomial families.
  std::vector<std::uint8_t> flat(300);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    flat[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }

  WireBuf buf;
  buf.append_copy(flat.data(), 10);
  std::vector<std::uint8_t> mid(flat.begin() + 10, flat.begin() + 200);
  buf.append_vector(std::move(mid));
  buf.append_view(flat.data() + 200, 100);
  ASSERT_EQ(buf.size(), flat.size());
  ASSERT_EQ(buf.fragment_count(), 3u);
  EXPECT_EQ(buf.checksum(&crc32), crc32(flat.data(), flat.size(), 0));
  EXPECT_EQ(buf.checksum(&crc32c), crc32c(flat.data(), flat.size(), 0));

  // Flattening through take_bytes preserves fragment order exactly.
  EXPECT_EQ(std::move(buf).take_bytes(), flat);
}

TEST(WireBuf, MakeOwnedSurvivesSourceScope) {
  WireBuf buf;
  {
    std::vector<std::uint8_t> local(64, 0xcd);
    buf.append_view(local.data(), local.size());
    EXPECT_FALSE(buf.fully_owned());
    buf.make_owned();
    EXPECT_TRUE(buf.fully_owned());
    // Mutating the source after make_owned must not reach the copy.
    local.assign(local.size(), 0x00);
  }
  EXPECT_EQ(std::move(buf).take_bytes(), std::vector<std::uint8_t>(64, 0xcd));
}

TEST(WireBuf, CloneSharedSharesStorageWithoutCopying) {
  std::vector<std::uint8_t> body(512, 0x5a);
  const std::uint8_t* storage = body.data();

  WireBuf buf;
  buf.append_vector(std::move(body));
  ASSERT_TRUE(buf.fully_owned());
  WireBuf clone = buf.clone_shared();

  // Both point at the very same storage — a refcount bump, not a byte copy.
  ASSERT_EQ(clone.fragment_count(), 1u);
  EXPECT_EQ(clone.views()[0].data, storage);
  EXPECT_EQ(buf.views()[0].data, storage);
  EXPECT_EQ(std::move(clone).take_bytes(),
            std::vector<std::uint8_t>(512, 0x5a));
}

TEST(LocalChannel, WireBufDeliveryIsBitIdenticalAndZeroCopy) {
  auto pair = LocalChannel::make_pair();
  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31 + 5);
  }
  const std::vector<std::uint8_t> expect = payload;
  const std::uint8_t* storage = payload.data();

  WireBuf buf;
  buf.append_vector(std::move(payload));
  pair.a->send(9, std::move(buf));
  Message m = pair.b->recv(9);
  EXPECT_EQ(m.payload, expect);
  // A single whole-vector WireBuf moves through in-process delivery without
  // ever being copied: the receiver sees the sender's allocation.
  EXPECT_EQ(m.payload.data(), storage);
}

TEST(LocalChannel, FragmentedWireBufDeliversFlattenedBitIdentical) {
  auto pair = LocalChannel::make_pair();
  std::vector<std::uint8_t> head = {0x01, 0x02};
  std::vector<std::uint8_t> tail(100, 0x77);
  // head then tail, built in place (GCC 12's -Warray-bounds misfires on a
  // vector::insert that grows a two-byte vector).
  std::vector<std::uint8_t> expect(head.size() + tail.size(), 0x77);
  expect[0] = 0x01;
  expect[1] = 0x02;

  WireBuf buf;
  buf.append_copy(head.data(), head.size());
  buf.append_view(tail.data(), tail.size());
  pair.a->send(3, std::move(buf));
  EXPECT_EQ(pair.b->recv(3).payload, expect);
}

TEST(WireBuf, SmallFlattenBypassesPoolLargeFlattenUsesIt) {
  // Below zc_min_bytes() a fragmented flatten must allocate exactly-sized
  // storage inline (no pool mutex, no size-class rounding); at or above the
  // threshold it must come from the pool's power-of-two classes. This pins
  // the small-message fast path: tiny reconstruct frames were regressing by
  // paying the pool's locking and rounding costs for sub-KB payloads.
  const std::size_t small = 1000;  // well under any sane threshold
  ASSERT_LT(small, zc_min_bytes());
  WireBuf sbuf;
  std::vector<std::uint8_t> a(small / 2, 0x11), b(small - small / 2, 0x22);
  sbuf.append_copy(a.data(), a.size());
  sbuf.append_copy(b.data(), b.size());
  auto sflat = std::move(sbuf).take_bytes();
  EXPECT_EQ(sflat.size(), small);
  EXPECT_EQ(sflat.capacity(), small);  // exact-size inline allocation

  const std::size_t large = zc_min_bytes();
  WireBuf lbuf;
  std::vector<std::uint8_t> big(large - 8, 0x33), tail(8, 0x44);
  lbuf.append_vector(std::move(big));
  lbuf.append_copy(tail.data(), tail.size());
  auto lflat = std::move(lbuf).take_bytes();
  EXPECT_EQ(lflat.size(), large);
  // Pool storage: capacity is the (power-of-two) size class, not the size.
  EXPECT_GE(lflat.capacity(), large);
  EXPECT_EQ(lflat.capacity() & (lflat.capacity() - 1), 0u);
}

TEST(BufferPool, RoundTripHitsAndOffClassDrops) {
  BufferPool pool(1 << 20);
  auto v = pool.acquire(1000);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_EQ(v.capacity(), 1024u);  // rounded up to the size class
  pool.release(std::move(v));
  auto m1 = pool.metrics();
  EXPECT_EQ(m1.releases, 1u);
  EXPECT_EQ(m1.bytes_held, 1024u);

  // Any request that maps to the same class is served from the bin.
  auto w = pool.acquire(777);
  EXPECT_EQ(w.size(), 777u);
  auto m2 = pool.metrics();
  EXPECT_EQ(m2.hits, 1u);
  EXPECT_EQ(m2.bytes_held, 0u);

  // A buffer whose capacity is not an exact class size is rejected — it
  // would otherwise shrink the class guarantee for later acquires.
  std::vector<std::uint8_t> odd(300);
  ASSERT_NE(odd.capacity(), 512u);
  pool.release(std::move(odd));
  EXPECT_EQ(pool.metrics().drops, 1u);
}

TEST(BufferPool, CapBoundsRetainedBytes) {
  BufferPool pool(2048);
  auto a = pool.acquire(1024);
  auto b = pool.acquire(1024);
  auto c = pool.acquire(1024);
  pool.release(std::move(a));
  pool.release(std::move(b));
  pool.release(std::move(c));  // third release would exceed the cap
  const auto m = pool.metrics();
  EXPECT_EQ(m.releases, 2u);
  EXPECT_EQ(m.drops, 1u);
  EXPECT_LE(m.bytes_held, pool.cap_bytes());
}

TEST(BufferPool, OffClassAndDisabledPoolAcquiresAreNotMisses) {
  // Regression: acquires the pool could never serve — sizes above the class
  // range, or any acquire while pooling is disabled (cap 0) — used to count
  // as misses, deflating the hit rate eligible traffic is judged by. They
  // are tallied separately as off_class.
  BufferPool pool(1 << 20);
  (void)pool.acquire((16u << 20) + 1);  // above kMaxClass
  auto m = pool.metrics();
  EXPECT_EQ(m.misses, 0u);
  EXPECT_EQ(m.off_class, 1u);

  (void)pool.acquire(64);  // eligible and cold: a genuine miss
  m = pool.metrics();
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.off_class, 1u);

  BufferPool disabled(0);
  (void)disabled.acquire(64);
  const auto dm = disabled.metrics();
  EXPECT_EQ(dm.hits, 0u);
  EXPECT_EQ(dm.misses, 0u);
  EXPECT_EQ(dm.off_class, 1u);
}

TEST(TcpChannel, Crc32cNegotiatedBetweenNativePeers) {
  const std::uint16_t port = 39263;
  std::shared_ptr<Channel> server;
  std::thread listener([&] { server = TcpChannel::listen(port); });
  auto client = TcpChannel::connect("127.0.0.1", port, 5.0);
  listener.join();

  auto* s = dynamic_cast<TcpChannel*>(server.get());
  auto* c = dynamic_cast<TcpChannel*>(client.get());
  ASSERT_NE(s, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(s->crc32c_negotiated());
  EXPECT_TRUE(c->crc32c_negotiated());
  client->send(1, bytes({5, 6, 7}));
  EXPECT_EQ(server->recv(1).payload, bytes({5, 6, 7}));
}

TEST(TcpChannel, LegacyPeerWithoutCrc32cFallsBackToIeee) {
  const std::uint16_t port = 39264;
  std::shared_ptr<Channel> server;
  std::thread listener([&] { server = TcpChannel::listen(port); });
  const int fd = raw_handshake_client(port);  // hello advertises flags = 0
  listener.join();

  auto* s = dynamic_cast<TcpChannel*>(server.get());
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->crc32c_negotiated());

  // A frame checksummed with plain IEEE crc32 must be accepted.
  std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
  RawFrameHeader h;
  h.tag = 7;
  h.seq = 1;
  h.payload_len = body.size();
  h.payload_crc = crc32(body.data(), body.size());
  h.header_crc = crc32(&h, sizeof(h) - sizeof(std::uint32_t));
  ASSERT_EQ(::send(fd, &h, sizeof(h), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(h)));
  ASSERT_EQ(::send(fd, body.data(), body.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(body.size()));
  EXPECT_EQ(server->recv(7).payload, bytes({1, 2, 3, 4, 5}));
  ::close(fd);
}

TEST(TcpChannel, CorruptCoalescedPairPayloadFailsFast) {
  const std::uint16_t port = 39265;
  std::shared_ptr<Channel> server;
  std::thread listener([&] { server = TcpChannel::listen(port); });
  const int fd = raw_handshake_client(port);
  listener.join();

  // Build a coalesced E/F pair payload exactly as compress::Endpoint frames
  // it: [kPair=2][u32 len_a LE][body_a][body_b], each body led by the
  // kDense=0 subkind byte.
  const MatrixF e = psml::test::random_matrix(8, 8, 42);
  const MatrixF f = psml::test::random_matrix(8, 8, 43);
  const auto enc_a = encode_matrix(e);
  const auto enc_b = encode_matrix(f);
  std::vector<std::uint8_t> payload;
  payload.push_back(2);  // kPair
  const std::uint32_t len_a = static_cast<std::uint32_t>(enc_a.size() + 1);
  for (int sh = 0; sh < 32; sh += 8) {
    payload.push_back(static_cast<std::uint8_t>((len_a >> sh) & 0xff));
  }
  payload.push_back(0);  // kDense
  payload.insert(payload.end(), enc_a.begin(), enc_a.end());
  payload.push_back(0);  // kDense
  payload.insert(payload.end(), enc_b.begin(), enc_b.end());

  RawFrameHeader h;
  h.tag = 0x00e00001u;  // an exchange-style tag; any tag works
  h.seq = 1;
  h.payload_len = payload.size();
  h.payload_crc = crc32(payload.data(), payload.size());
  h.header_crc = crc32(&h, sizeof(h) - sizeof(std::uint32_t));
  // Flip one bit inside body_b after checksumming: the frame CRC must catch
  // it at the transport layer, before any decode runs.
  payload[5 + len_a + enc_b.size() / 2] ^= 0x10;

  ASSERT_EQ(::send(fd, &h, sizeof(h), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(h)));
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(payload.size()));
  EXPECT_THROW(server->recv(h.tag), NetworkError);
  ::close(fd);
}

}  // namespace
}  // namespace psml::net
