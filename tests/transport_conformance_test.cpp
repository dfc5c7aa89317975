#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lod/media/asf.hpp"
#include "lod/net/network.hpp"
#include "lod/net/real_transport.hpp"
#include "lod/net/transport.hpp"
#include "lod/streaming/protocol.hpp"
#include "lod/streaming/server.hpp"

/// \file transport_conformance_test.cpp
/// One behavioral contract, two backends.
///
/// Every test here is written against `net::Transport` alone and instantiated
/// for both implementations — the deterministic simulator (`SimTransport`)
/// and the kernel-socket epoll loop (`RealTransport`). A test may only use
/// the seam plus each harness's `run_until`; anything backend-specific
/// (links, loss, loopback addresses) lives in the harness. This is the
/// executable statement of "the stack above packets cannot tell which
/// network it is running on".

namespace lod::net {
namespace {

/// The simulated backend: two hosts joined by a clean 10 Mb/s LAN link.
struct SimHarness {
  Simulator sim;
  Network net{sim, 7};
  HostId a{0};
  HostId b{0};

  SimHarness() {
    a = net.add_host("alpha");
    b = net.add_host("beta");
    LinkConfig lan;  // defaults: 10 Mb/s, 1 ms, lossless
    net.add_link(a, b, lan);
  }

  Transport& transport() { return net; }

  /// Drive the event loop until \p pred holds or events run dry.
  bool run_until(const std::function<bool()>& pred) {
    const SimTime deadline = net.now() + sec(30);
    while (!pred() && net.now() < deadline) {
      if (sim.run_steps(64) == 0) break;  // idle: nothing further can change
    }
    return pred();
  }
};

/// The kernel backend: two loopback hosts on one epoll loop. Single-threaded
/// on purpose — the loop runs on the test thread, with a polling timer
/// checking the predicate, so the tests are TSan-clean by construction.
struct RealHarness {
  RealTransport rt;
  HostId a{0};
  HostId b{0};

  RealHarness() {
    a = rt.add_host("alpha");
    b = rt.add_host("beta");
  }

  Transport& transport() { return rt; }

  bool run_until(const std::function<bool()>& pred) {
    bool ok = false;
    std::function<void()> poll = [&] {
      if (pred()) {
        ok = true;
        rt.stop();
        return;
      }
      rt.schedule_after(msec(2), poll);
    };
    rt.schedule_after(usec(0), poll);
    const EventId guard = rt.schedule_after(sec(10), [&] { rt.stop(); });
    rt.run();
    rt.cancel(guard);
    return ok || pred();
  }
};

template <typename H>
class TransportConformance : public ::testing::Test {
 protected:
  H h;
};

struct BackendNames {
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, SimHarness>) return "SimTransport";
    if constexpr (std::is_same_v<T, RealHarness>) return "RealTransport";
    return "unknown";
  }
};

using Backends = ::testing::Types<SimHarness, RealHarness>;
TYPED_TEST_SUITE(TransportConformance, Backends, BackendNames);

std::vector<std::byte> bytes_of(std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return std::vector<std::byte>(p, p + s.size());
}

std::string string_of(std::span<const std::byte> b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

TYPED_TEST(TransportConformance, DatagramDelivery) {
  Transport& t = this->h.transport();
  std::optional<Datagram> got;
  DatagramSocket rx(t, this->h.b, 7000);
  rx.on_receive([&](const Datagram& d) { got = d; });
  DatagramSocket tx(t, this->h.a, 7001);
  tx.send_to(this->h.b, 7000, bytes_of("hello over any backend"));

  ASSERT_TRUE(this->h.run_until([&] { return got.has_value(); }));
  EXPECT_EQ(got->src, this->h.a);
  EXPECT_EQ(got->src_port, 7001);
  EXPECT_EQ(got->dst, this->h.b);
  EXPECT_EQ(got->dst_port, 7000);
  EXPECT_EQ(string_of(got->payload), "hello over any backend");
  EXPECT_TRUE(got->body.empty());
}

/// Scatter-gather sends must arrive with the sender's exact payload/body
/// split: the reliable endpoint's framing reads header fields from `payload`
/// and takes `body` as the message, on every backend.
TYPED_TEST(TransportConformance, ScatterGatherSplitSurvivesTheWire) {
  Transport& t = this->h.transport();
  std::optional<Datagram> got;
  DatagramSocket rx(t, this->h.b, 7000);
  rx.on_receive([&](const Datagram& d) { got = d; });
  DatagramSocket tx(t, this->h.a, 7001);
  tx.send_to(this->h.b, 7000, bytes_of("hdr"), bytes_of("attached body"), 28);

  ASSERT_TRUE(this->h.run_until([&] { return got.has_value(); }));
  EXPECT_EQ(string_of(got->payload), "hdr");
  EXPECT_EQ(string_of(got->body), "attached body");
}

TYPED_TEST(TransportConformance, ReliableDeliversInOrder) {
  Transport& t = this->h.transport();
  std::vector<std::string> got;
  ReliableEndpoint rx(t, this->h.b, 80);
  rx.on_receive([&](const ReliableEndpoint::Message& m) {
    got.push_back(string_of(m.payload));
  });
  ReliableEndpoint tx(t, this->h.a, 81);
  for (int i = 0; i < 20; ++i) {
    tx.send_to(this->h.b, 80, bytes_of("msg " + std::to_string(i)));
  }

  ASSERT_TRUE(this->h.run_until([&] { return got.size() == 20; }));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], "msg " + std::to_string(i));
  EXPECT_TRUE(this->h.run_until([&] { return tx.all_acked(); }));
}

/// Messages sent before the receiver exists are delivered by retransmission
/// once it binds — the reconnect story is identical on both backends.
TYPED_TEST(TransportConformance, RetransmissionCoversALateReceiver) {
  Transport& t = this->h.transport();
  ReliableEndpoint tx(t, this->h.a, 81, msec(50));
  for (int i = 0; i < 3; ++i) {
    tx.send_to(this->h.b, 80, bytes_of("early " + std::to_string(i)));
  }
  std::vector<std::string> got;
  std::optional<ReliableEndpoint> rx;
  t.schedule_after(msec(150), [&] {
    rx.emplace(t, this->h.b, 80);
    rx->on_receive([&](const ReliableEndpoint::Message& m) {
      got.push_back(string_of(m.payload));
    });
  });

  ASSERT_TRUE(this->h.run_until([&] { return got.size() == 3; }));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got[i], "early " + std::to_string(i));
  EXPECT_GE(tx.retransmissions(), 1u);
}

TYPED_TEST(TransportConformance, RpcRoundTrip) {
  Transport& t = this->h.transport();
  RpcServer server(t, this->h.b, 80);
  server.route("/echo", [](std::string_view, std::span<const std::byte> body) {
    return std::make_pair(200,
                          std::vector<std::byte>(body.begin(), body.end()));
  });
  RpcClient client(t, this->h.a, 81);
  int status = -1;
  std::string body;
  client.call(this->h.b, 80, "/echo", bytes_of("ping"),
              [&](Result<RpcReply> r) {
                ASSERT_TRUE(r.has_value());
                status = r->status;
                body = string_of(r->body);
              });

  ASSERT_TRUE(this->h.run_until([&] { return status != -1; }));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ping");
}

TYPED_TEST(TransportConformance, RpcUnknownPathIs404) {
  Transport& t = this->h.transport();
  RpcServer server(t, this->h.b, 80);
  RpcClient client(t, this->h.a, 81);
  int status = -1;
  client.call(this->h.b, 80, "/missing", {},
              [&](Result<RpcReply> r) { status = r ? r->status : -2; });

  ASSERT_TRUE(this->h.run_until([&] { return status != -1; }));
  EXPECT_EQ(status, 404);
}

/// A deadline against a server that never answers reports the uniform
/// `Error::kTimeout` — the same code a sim black hole and a real dead port
/// produce.
TYPED_TEST(TransportConformance, RpcDeadlineReportsTimeout) {
  Transport& t = this->h.transport();
  RpcClient client(t, this->h.a, 81);
  std::optional<Error> err;
  RpcClient::CallOptions opts;
  opts.timeout = msec(200);
  client.call(this->h.b, 4242, "/void", {},
              [&](Result<RpcReply> r) {
                if (!r) err = r.error();
              },
              opts);

  ASSERT_TRUE(this->h.run_until([&] { return err.has_value(); }));
  EXPECT_EQ(*err, Error::kTimeout);
}

/// Both backends run timers on the same EventQueue, so they share its
/// semantics: (time, schedule order) firing, past times clamped to now,
/// stale ids inert, and cancellation from inside a same-instant sibling.
TYPED_TEST(TransportConformance, TimersFireInOrderAndCancel) {
  Transport& t = this->h.transport();
  std::vector<int> fired;
  bool done = false;
  t.schedule_after(msec(50), [&] {
    fired.push_back(50);
    done = true;
  });
  t.schedule_after(msec(10), [&] { fired.push_back(10); });
  const EventId victim = t.schedule_after(msec(30), [&] { fired.push_back(30); });
  EXPECT_TRUE(t.cancel(victim));
  EXPECT_FALSE(t.cancel(victim));  // second cancel is a stale no-op

  // Same instant: FIFO in schedule order.
  const SimTime same = t.now() + msec(20);
  for (int i = 0; i < 4; ++i) {
    t.schedule_at(same, [&fired, i] { fired.push_back(20 + i); });
  }
  // A handler may cancel a sibling due at its own instant before it runs.
  const SimTime pair = t.now() + msec(40);
  EventId sibling = 0;
  t.schedule_at(pair, [&] {
    fired.push_back(40);
    EXPECT_TRUE(t.cancel(sibling));
  });
  sibling = t.schedule_at(pair, [&] { fired.push_back(41); });
  // A time in the past clamps to now: scheduled last, it fires first.
  const EventId past =
      t.schedule_at(t.now() - sec(1), [&] { fired.push_back(0); });

  ASSERT_TRUE(this->h.run_until([&] { return done; }));
  EXPECT_EQ(fired, (std::vector<int>{0, 10, 20, 21, 22, 23, 40, 50}));
  EXPECT_FALSE(t.cancel(past));     // already fired: a no-op
  EXPECT_FALSE(t.cancel(sibling));  // already cancelled: a no-op
}

/// Truncated bytes from a peer must not take the event loop down. A 1-byte
/// data segment (its header cut short) and a reliable 1-byte PAUSE (no
/// session id) reach a streaming server's control port; the endpoint drops
/// and counts both, and the next request on the stream is still answered.
TYPED_TEST(TransportConformance, TruncatedControlInputIsDroppedAndCounted) {
  namespace proto = streaming::proto;
  Transport& t = this->h.transport();
  streaming::ServerConfig cfg;
  cfg.control_port = 15540;
  streaming::StreamingServer server(t, this->h.b, cfg);
  server.publish("lecture", media::asf::File{});

  DatagramSocket raw(t, this->h.a, 7001);
  raw.send_to(this->h.b, cfg.control_port, std::vector<std::byte>{std::byte{1}});
  ReliableEndpoint ctl(t, this->h.a, 7002);
  std::optional<proto::Ctl> reply;
  ctl.on_receive([&](const ReliableEndpoint::Message& m) {
    reply = static_cast<proto::Ctl>(m.payload.view()[0]);
  });
  ctl.send_to(this->h.b, cfg.control_port,
              std::vector<std::byte>{std::byte{static_cast<std::uint8_t>(
                  proto::Ctl::kPause)}});
  ByteWriter describe;
  describe.u8(static_cast<std::uint8_t>(proto::Ctl::kDescribe));
  describe.str("lecture");
  ctl.send_to(this->h.b, cfg.control_port, std::move(describe).take());

  const auto rejected = [&] {
    return t.obs().snapshot().counter("lod.transport.messages_rejected");
  };
  ASSERT_TRUE(this->h.run_until(
      [&] { return reply.has_value() && rejected() == 2; }));
  EXPECT_EQ(*reply, proto::Ctl::kDescribeOk);
  EXPECT_EQ(rejected(), 2u);
}


TYPED_TEST(TransportConformance, EndpointNamesRoundTrip) {
  Transport& t = this->h.transport();
  EXPECT_EQ(t.find_endpoint("alpha"), std::optional<HostId>(this->h.a));
  EXPECT_EQ(t.find_endpoint("beta"), std::optional<HostId>(this->h.b));
  EXPECT_EQ(t.find_endpoint("no-such-host"), std::nullopt);
  EXPECT_EQ(t.endpoint_name(this->h.a), "alpha");
}

/// QoS is an optional capability: a backend may grant a reservation (the
/// simulator does) or decline (the kernel path does), but a granted channel
/// must report a positive rate and tagged datagrams must still deliver.
TYPED_TEST(TransportConformance, QosDegradesToBestEffort) {
  Transport& t = this->h.transport();
  const std::optional<ChannelId> ch =
      t.reserve_channel(this->h.a, this->h.b, 1'000'000);
  ChannelId tag = 0;
  if (ch.has_value()) {
    EXPECT_EQ(t.channel_rate_bps(*ch), 1'000'000);
    tag = *ch;
  } else {
    EXPECT_EQ(t.channel_rate_bps(999), 0);
  }

  std::optional<Datagram> got;
  DatagramSocket rx(t, this->h.b, 7000);
  rx.on_receive([&](const Datagram& d) { got = d; });
  DatagramSocket tx(t, this->h.a, 7001);
  tx.send_to(this->h.b, 7000, bytes_of("qos-or-not"), 28, tag);

  ASSERT_TRUE(this->h.run_until([&] { return got.has_value(); }));
  EXPECT_EQ(string_of(got->payload), "qos-or-not");
  if (ch.has_value()) t.release_channel(*ch);
}

/// Oversized datagrams are refused by the backend's own limit (link MTU is
/// not modeled; UDP's 64KB ceiling is) without wedging the sender.
TYPED_TEST(TransportConformance, OversizedDatagramIsRefusedCleanly) {
  Transport& t = this->h.transport();
  DatagramSocket rx(t, this->h.b, 7000);
  bool got_big = false;
  rx.on_receive([&](const Datagram&) { got_big = true; });
  DatagramSocket tx(t, this->h.a, 7001);
  // Far over RealTransport::kMaxDatagram; the simulator takes anything, the
  // kernel refuses — either way the next normal send must still work.
  const bool sent = tx.send_to(this->h.b, 7000,
                               std::vector<std::byte>(100'000));
  std::optional<Datagram> got;
  DatagramSocket rx2(t, this->h.b, 7002);
  rx2.on_receive([&](const Datagram& d) { got = d; });
  tx.send_to(this->h.b, 7002, bytes_of("after the giant"));

  ASSERT_TRUE(this->h.run_until([&] { return got.has_value(); }));
  EXPECT_EQ(string_of(got->payload), "after the giant");
  if (!sent) EXPECT_FALSE(got_big);
}

/// Timers are loop-thread state: while `run()` is active, a schedule or
/// cancel from another thread is refused loudly instead of racing, and
/// `stop()` remains the one call any thread may make.
TEST(RealTransportThreading, ForeignThreadTimersAreRejectedAndStopStillWorks) {
  RealTransport rt;
  std::atomic<bool> running{false};
  rt.schedule_after(usec(0), [&] { running = true; });
  const EventId later = rt.schedule_after(sec(30), [] {});
  std::thread loop([&] { rt.run(); });
  for (int i = 0; i < 5000 && !running.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(running.load());

  EXPECT_THROW(rt.schedule_after(msec(1), [] {}), std::logic_error);
  EXPECT_THROW(rt.cancel(later), std::logic_error);
  rt.stop();  // kicks the loop out of epoll_wait
  loop.join();

  // The loop is idle again: the owning thread may touch timers.
  EXPECT_TRUE(rt.cancel(later));
}

}  // namespace
}  // namespace lod::net
