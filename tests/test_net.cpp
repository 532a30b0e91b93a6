// End-to-end service layer: multi-session traffic through the full stack
// (Client -> wire -> transport -> Server -> farm -> engine) must be
// bit-identical to aes::Aes128, over both the deterministic loopback and
// real localhost TCP, and a graceful drain must answer every accepted
// frame before the server exits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "aes/cipher.hpp"
#include "aes/modes.hpp"
#include "engine/conformance.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace net = aesip::net;
namespace farm = aesip::farm;
namespace aes = aesip::aes;

namespace {

net::ServerConfig server_cfg(aesip::engine::EngineKind engine, int workers = 4) {
  net::ServerConfig cfg;
  cfg.farm.workers = workers;
  cfg.farm.engine = engine;
  return cfg;
}

/// One session's worth of mixed verified traffic: every response compared
/// against the aes::Aes128 reference. Returns the number of mismatches.
int run_verified_session(net::Transport& transport, const std::string& address,
                         std::uint64_t sid, int requests, std::uint32_t seed) {
  net::Client client(transport, address, sid);
  std::mt19937 rng(seed);
  farm::Key128 key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  client.set_key(key);
  const aes::Aes128 ref(key);

  int mismatches = 0;
  struct Outstanding {
    std::uint32_t seq;
    std::vector<std::uint8_t> expect;
  };
  std::deque<Outstanding> outstanding;
  const auto collect = [&] {
    auto o = std::move(outstanding.front());
    outstanding.pop_front();
    if (client.wait(o.seq) != o.expect) ++mismatches;
  };

  for (int r = 0; r < requests; ++r) {
    farm::Key128 iv;
    for (auto& b : iv) b = static_cast<std::uint8_t>(rng());
    const std::span<const std::uint8_t, 16> ivs(iv.data(), 16);
    const int mode = static_cast<int>(rng() % 3);
    std::size_t bytes = (1 + rng() % 6) * aes::kBlock;
    if (mode == 2) bytes -= rng() % aes::kBlock;
    std::vector<std::uint8_t> data(bytes);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());

    Outstanding o;
    if (mode == 2) {
      o.expect = aes::ctr_crypt(ref, ivs, data);
      o.seq = client.submit_ctr(iv, std::move(data));
    } else if (rng() & 1) {
      o.expect = mode ? aes::cbc_encrypt(ref, ivs, data) : aes::ecb_encrypt(ref, data);
      o.seq = client.submit_enc(mode == 1, iv, std::move(data));
    } else {
      o.expect = mode ? aes::cbc_decrypt(ref, ivs, data) : aes::ecb_decrypt(ref, data);
      o.seq = client.submit_dec(mode == 1, iv, std::move(data));
    }
    outstanding.push_back(std::move(o));
    while (outstanding.size() >= client.window()) collect();
  }
  while (!outstanding.empty()) collect();
  client.drain();
  client.bye();
  return mismatches;
}

TEST(NetLoopback, MultiSessionBitExactSw) {
  net::LoopbackTransport transport;
  net::Server server(transport, "svc", server_cfg(aesip::engine::EngineKind::kSoftware));
  server.start();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < 4; ++s)
    threads.emplace_back([&, s] {
      mismatches += run_verified_session(transport, "svc", static_cast<std::uint64_t>(s) + 1,
                                         64, 100 + static_cast<std::uint32_t>(s));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  server.stop();
  const auto st = server.stats();
  EXPECT_EQ(st.connections_accepted, 4u);
  EXPECT_EQ(st.protocol_errors, 0u);
  EXPECT_EQ(st.window_violations, 0u);
  EXPECT_EQ(st.in_flight, 0u);
  EXPECT_GE(st.data_frames, 4u * 64u);
  EXPECT_EQ(st.responses_sent, st.data_frames);  // every data frame answered
}

TEST(NetLoopback, MultiSessionBitExactBehavioral) {
  net::LoopbackTransport transport;
  net::Server server(transport, "svc", server_cfg(aesip::engine::EngineKind::kBehavioral));
  server.start();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < 4; ++s)
    threads.emplace_back([&, s] {
      mismatches += run_verified_session(transport, "svc", static_cast<std::uint64_t>(s) + 1,
                                         24, 200 + static_cast<std::uint32_t>(s));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(NetLoopback, TinyChunksExerciseShortReadsAndPartialWrites) {
  // 3-byte transport chunks slice every frame across many read/write
  // calls; nothing about the protocol may depend on framing arriving
  // whole. (Write-side kWouldBlock is covered by TransportContract.)
  net::LoopbackTransport transport(/*max_chunk=*/3);
  net::Server server(transport, "svc", server_cfg(aesip::engine::EngineKind::kSoftware, 2));
  server.start();
  EXPECT_EQ(run_verified_session(transport, "svc", 1, 16, 7), 0);
  server.stop();
}

TEST(NetLoopback, FipsAppendixBThroughTheStack) {
  net::LoopbackTransport transport;
  net::Server server(transport, "svc", server_cfg(aesip::engine::EngineKind::kSoftware, 1));
  server.start();

  net::Client client(transport, "svc", 1);
  farm::Key128 key, iv{};
  std::copy(aesip::engine::kFipsBKey.begin(), aesip::engine::kFipsBKey.end(), key.begin());
  client.set_key(key);
  const auto ct = client.enc_blocks(
      /*cbc=*/false, iv,
      std::vector<std::uint8_t>(aesip::engine::kFipsBPlain.begin(),
                                aesip::engine::kFipsBPlain.end()));
  EXPECT_TRUE(std::equal(ct.begin(), ct.end(), aesip::engine::kFipsBCipher.begin()));
  const auto pt = client.dec_blocks(/*cbc=*/false, iv, ct);
  EXPECT_TRUE(std::equal(pt.begin(), pt.end(), aesip::engine::kFipsBPlain.begin()));
  client.bye();
  server.stop();
}

TEST(NetLoopback, CtrFanoutSizedStreamBitExact) {
  // Payload large enough to take the farm's blocking-submit fan-out path
  // (>= ctr_fanout_min_blocks with multiple workers).
  net::LoopbackTransport transport;
  net::Server server(transport, "svc", server_cfg(aesip::engine::EngineKind::kSoftware, 4));
  server.start();

  net::Client client(transport, "svc", 1);
  std::mt19937 rng(42);
  farm::Key128 key, iv;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng());
  for (auto& b : iv) b = static_cast<std::uint8_t>(rng());
  client.set_key(key);
  std::vector<std::uint8_t> data(256 * aes::kBlock - 5);  // ragged fan-out stream
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());

  const aes::Aes128 ref(key);
  const std::span<const std::uint8_t, 16> ivs(iv.data(), 16);
  EXPECT_EQ(client.ctr_stream(iv, data), aes::ctr_crypt(ref, ivs, data));
  client.bye();
  server.stop();
}

TEST(NetLoopback, RekeySwitchesTheSessionKey) {
  net::LoopbackTransport transport;
  net::Server server(transport, "svc", server_cfg(aesip::engine::EngineKind::kSoftware, 2));
  server.start();

  net::Client client(transport, "svc", 1);
  const farm::Key128 k1{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}};
  const farm::Key128 k2{{99, 98, 97, 96, 95, 94, 93, 92, 91, 90, 89, 88, 87, 86, 85, 84}};
  const farm::Key128 iv{};
  std::vector<std::uint8_t> block(16, 0x5a);

  client.set_key(k1);
  const auto c1 = client.enc_blocks(false, iv, block);
  client.rekey(k2);
  const auto c2 = client.enc_blocks(false, iv, block);
  EXPECT_EQ(c1, aes::ecb_encrypt(aes::Aes128(k1), block));
  EXPECT_EQ(c2, aes::ecb_encrypt(aes::Aes128(k2), block));
  EXPECT_NE(c1, c2);
  client.bye();
  server.stop();
}

TEST(NetLoopback, StatsOpReturnsFarmJson) {
  net::LoopbackTransport transport;
  net::Server server(transport, "svc", server_cfg(aesip::engine::EngineKind::kSoftware, 2));
  server.start();
  net::Client client(transport, "svc", 1);
  const std::string json = client.stats_json();
  EXPECT_NE(json.find("workers"), std::string::npos);
  client.bye();
  server.stop();
}

TEST(NetLoopback, DataErrorSurfacesAsWireError) {
  net::LoopbackTransport transport;
  net::Server server(transport, "svc", server_cfg(aesip::engine::EngineKind::kSoftware, 1));
  server.start();
  net::Client client(transport, "svc", 1);
  // No key installed: the server must answer kError/no_key and the client
  // must surface it as a typed exception, not a hang or a garbage result.
  try {
    client.enc_blocks(false, farm::Key128{}, std::vector<std::uint8_t>(16));
    FAIL() << "expected WireError";
  } catch (const net::WireError& e) {
    EXPECT_EQ(e.code(), net::ErrorCode::kNoKey);
  }
  // Non-fatal: the session recovers.
  client.set_key(farm::Key128{});
  EXPECT_EQ(client.enc_blocks(false, farm::Key128{}, std::vector<std::uint8_t>(16)).size(),
            16u);
  client.bye();
  server.stop();
}

TEST(NetDrain, GracefulDrainLosesNothing) {
  net::LoopbackTransport transport;
  net::ServerConfig cfg = server_cfg(aesip::engine::EngineKind::kBehavioral, 2);
  cfg.window = 64;
  net::Server server(transport, "svc", cfg);
  server.start();

  net::Client client(transport, "svc", 1);
  farm::Key128 key{};
  key[0] = 0x42;
  client.set_key(key);
  const aes::Aes128 ref(key);
  const farm::Key128 iv{};

  // Pipeline a burst without collecting anything, wait until the server
  // has accepted every frame, then pull the rug: request_drain.
  constexpr int kBurst = 32;
  std::vector<std::uint32_t> seqs;
  std::vector<std::vector<std::uint8_t>> expect;
  for (int i = 0; i < kBurst; ++i) {
    std::vector<std::uint8_t> data(8 * aes::kBlock);
    for (auto& b : data) b = static_cast<std::uint8_t>(i * 31 + 7);
    expect.push_back(aes::ecb_encrypt(ref, data));
    seqs.push_back(client.submit_enc(false, iv, std::move(data)));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().data_frames < kBurst &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(server.stats().data_frames, static_cast<std::uint64_t>(kBurst));

  server.request_drain();

  // The zero-loss contract: every accepted frame is answered, correctly,
  // even though the server is shutting down.
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(client.wait(seqs[i]), expect[i]) << i;

  server.stop();
  const auto st = server.stats();
  EXPECT_EQ(st.responses_sent, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(st.in_flight, 0u);
  EXPECT_EQ(st.connections_active, 0u);
}

TEST(NetDrain, DrainBarrierOrdersResponses) {
  net::LoopbackTransport transport;
  net::Server server(transport, "svc", server_cfg(aesip::engine::EngineKind::kSoftware, 2));
  server.start();
  net::Client client(transport, "svc", 1);
  client.set_key(farm::Key128{});
  std::vector<std::uint32_t> seqs;
  for (int i = 0; i < 8; ++i)
    seqs.push_back(client.submit_enc(false, farm::Key128{},
                                     std::vector<std::uint8_t>(16, static_cast<std::uint8_t>(i))));
  client.drain();
  // kDrainOk only comes after every prior frame is answered, and responses
  // are delivered in write order — so all 8 results are already here.
  EXPECT_EQ(client.in_flight(), 0u);
  for (const auto seq : seqs) EXPECT_EQ(client.wait(seq).size(), 16u);
  client.bye();
  server.stop();
}

TEST(NetTcp, MultiSessionBitExactOverLocalhost) {
  auto transport = net::make_tcp_transport();
  std::unique_ptr<net::Server> server;
  try {
    server = std::make_unique<net::Server>(*transport, "127.0.0.1:0",
                                           server_cfg(aesip::engine::EngineKind::kSoftware));
  } catch (const std::exception& e) {
    GTEST_SKIP() << "cannot bind localhost TCP: " << e.what();
  }
  server->start();
  const std::string address = server->address();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < 8; ++s)
    threads.emplace_back([&, s] {
      mismatches += run_verified_session(*transport, address,
                                         static_cast<std::uint64_t>(s) + 1, 32,
                                         300 + static_cast<std::uint32_t>(s));
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  server->stop();
  const auto st = server->stats();
  EXPECT_EQ(st.connections_accepted, 8u);
  EXPECT_EQ(st.protocol_errors, 0u);
  EXPECT_EQ(st.responses_sent, st.data_frames);
}

TEST(NetTcp, ClientRetriesUntilServerIsUp) {
  auto transport = net::make_tcp_transport();
  // Pick a port by binding, remembering it, and shutting down again.
  std::string address;
  {
    net::Server probe(*transport, "127.0.0.1:0",
                      server_cfg(aesip::engine::EngineKind::kSoftware, 1));
    address = probe.address();
  }

  // Start the server late, on the client's second-or-later attempt.
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    net::Server server(*transport, address,
                       server_cfg(aesip::engine::EngineKind::kSoftware, 1));
    server.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    server.stop();
  });

  try {
    net::ClientConfig ccfg;
    ccfg.connect_attempts = 40;
    net::Client client(*transport, address, 1, ccfg);
    client.set_key(farm::Key128{});
    EXPECT_EQ(client.enc_blocks(false, farm::Key128{}, std::vector<std::uint8_t>(16)).size(),
              16u);
    client.bye();
  } catch (const std::exception& e) {
    late.join();
    GTEST_SKIP() << "localhost race lost: " << e.what();
  }
  late.join();
}

TEST(NetLoopback, LoopbackRefusesWithoutListener) {
  net::LoopbackTransport transport;
  EXPECT_THROW(transport.connect("nobody-home"), std::runtime_error);
}

// --- the Conn/Listener contract, driven directly on each transport ----------

std::unique_ptr<net::Transport> make_transport(const std::string& kind) {
  if (kind == "tcp") return net::make_tcp_transport();
  if (kind == "udp") return net::make_udp_transport();
  return std::make_unique<net::LoopbackTransport>();
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 7 + salt);
  return v;
}

void write_all(net::Conn& c, std::span<const std::uint8_t> bytes) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!bytes.empty() && std::chrono::steady_clock::now() < deadline) {
    const net::IoResult r = c.write_some(bytes);
    if (r.status == net::IoStatus::kOk)
      bytes = bytes.subspan(r.n);
    else if (r.status == net::IoStatus::kWouldBlock)
      c.wait_writable(std::chrono::milliseconds(10));
    else
      break;
  }
  ASSERT_TRUE(bytes.empty()) << bytes.size() << " bytes left unwritten";
}

/// Read exactly `n` bytes (fewer on EOF, error or a 5 s deadline).
std::vector<std::uint8_t> read_n(net::Conn& c, std::size_t n) {
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> buf(1 << 16);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (out.size() < n && std::chrono::steady_clock::now() < deadline) {
    const std::size_t want = std::min(buf.size(), n - out.size());
    const net::IoResult r = c.read_some(std::span<std::uint8_t>(buf.data(), want));
    if (r.status == net::IoStatus::kOk)
      out.insert(out.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(r.n));
    else if (r.status == net::IoStatus::kWouldBlock)
      c.wait_readable(std::chrono::milliseconds(10));
    else
      break;
  }
  return out;
}

/// The first read status other than kWouldBlock (within 5 s).
net::IoStatus next_status(net::Conn& c) {
  std::uint8_t byte;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    const net::IoResult r = c.read_some(std::span<std::uint8_t>(&byte, 1));
    if (r.status != net::IoStatus::kWouldBlock || std::chrono::steady_clock::now() >= deadline)
      return r.status;
    c.wait_readable(std::chrono::milliseconds(10));
  }
}

class TransportContract : public ::testing::TestWithParam<std::string> {};

TEST_P(TransportContract, ConnAndListenerKeepTheContract) {
  const std::string kind = GetParam();
  auto transport = make_transport(kind);
  auto listener = transport->listen(kind == "loopback" ? "contract" : "127.0.0.1:0");
  EXPECT_GE(listener->native_handle(), 0);

  // Connect on a helper thread while this one accepts: UDP's handshake
  // needs the listener side pumped while connect() blocks.
  auto connecting =
      std::async(std::launch::async, [&] { return transport->connect(listener->address()); });
  std::unique_ptr<net::Conn> server;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!server && std::chrono::steady_clock::now() < deadline) {
    listener->wait(std::chrono::milliseconds(1));
    server = listener->accept();
  }
  auto client = connecting.get();
  ASSERT_NE(server, nullptr);
  EXPECT_GE(client->native_handle(), 0);
  EXPECT_GE(server->native_handle(), 0);

  std::uint8_t byte;
  EXPECT_EQ(client->read_some(std::span<std::uint8_t>(&byte, 1)).status,
            net::IoStatus::kWouldBlock);
  EXPECT_EQ(server->read_some(std::span<std::uint8_t>(&byte, 1)).status,
            net::IoStatus::kWouldBlock);

  const auto up = pattern(10000, 1), down = pattern(10000, 2);
  write_all(*client, up);
  EXPECT_EQ(read_n(*server, up.size()), up);
  write_all(*server, down);
  EXPECT_EQ(read_n(*client, down.size()), down);

  if (kind != "udp") {
    // Nobody reads: the socket buffer fills and writes see kWouldBlock;
    // once the peer drains it, the writer is woken.
    const std::vector<std::uint8_t> chunk(1 << 16, 0xab);
    std::size_t queued = 0;
    net::IoStatus last = net::IoStatus::kOk;
    while (last == net::IoStatus::kOk && queued < (std::size_t{64} << 20)) {
      const net::IoResult r = client->write_some(chunk);
      last = r.status;
      queued += r.n;
    }
    ASSERT_EQ(last, net::IoStatus::kWouldBlock) << queued << " bytes queued without backpressure";
    EXPECT_EQ(read_n(*server, queued).size(), queued);
    EXPECT_TRUE(client->wait_writable(std::chrono::milliseconds(1000)));
  }

  // Close right after a last write: the peer drains it, then sees kEof.
  const auto tail = pattern(100, 3);
  write_all(*client, tail);
  client->close();
  EXPECT_EQ(read_n(*server, tail.size()), tail);
  EXPECT_EQ(next_status(*server), net::IoStatus::kEof);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportContract,
                         ::testing::Values("tcp", "udp", "loopback"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(NetLoopback, ResultWrittenBeforeAResetIsDelivered) {
  // A peer that closes with request bytes still unread resets the
  // connection (AF_UNIX, like TCP). The frames it wrote before closing
  // must still reach the caller, not be dropped with the reset.
  net::LoopbackTransport transport;
  auto listener = transport.listen("reset");
  std::promise<std::uint32_t> submitted;
  auto submitted_seq = submitted.get_future();
  std::thread fake_server([&] {
    std::unique_ptr<net::Conn> conn;
    while (!conn) {
      listener->wait(std::chrono::milliseconds(1));
      conn = listener->accept();
    }
    net::Frame f;
    f.op = net::Op::kHelloOk;  // answer HELLO without ever reading it
    f.session_id = 1;
    net::put_u32(f.payload, 1024);
    net::put_u32(f.payload, 4);
    write_all(*conn, net::encode_frame(f));
    if (submitted_seq.wait_for(std::chrono::seconds(5)) != std::future_status::ready) return;
    f.op = net::Op::kResult;
    f.seq = submitted_seq.get();
    f.payload.assign(16, 0x5a);
    write_all(*conn, net::encode_frame(f));
    conn->close();  // HELLO and the data frame are still unread: a reset
  });
  std::vector<std::uint8_t> got;
  try {
    net::Client client(transport, "reset", 1);
    const std::uint32_t seq =
        client.submit_enc(false, farm::Key128{}, std::vector<std::uint8_t>(16));
    submitted.set_value(seq);
    got = client.wait(seq);
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  fake_server.join();
  EXPECT_EQ(got, std::vector<std::uint8_t>(16, 0x5a));
}

TEST(NetLoopback, NamesArePrivateToEachTransport) {
  net::LoopbackTransport a, b;
  auto la = a.listen("svc");
  EXPECT_THROW(a.listen("svc"), std::runtime_error);
  auto lb = b.listen("svc");  // another instance: its own namespace
  EXPECT_THROW(a.connect("nobody-home"), std::runtime_error);
  auto ca = a.connect("svc");
  auto cb = b.connect("svc");
  EXPECT_NE(la->accept(), nullptr);
  EXPECT_NE(lb->accept(), nullptr);
  EXPECT_EQ(la->accept(), nullptr) << "each listener saw exactly its own connect";
  EXPECT_EQ(lb->accept(), nullptr);
}

}  // namespace
