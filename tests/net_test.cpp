// Tests for the wormhole network model: cut-through timing, channel
// holding, FIFO arbitration, LAN/SAN port penalties, receive gating and the
// Early-Recv hook timing.
#include <gtest/gtest.h>

#include <vector>

#include "itb/net/network.hpp"
#include "itb/packet/format.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using net::Network;
using net::TxHandle;
using packet::Bytes;

/// Records every hook invocation for assertions.
class Recorder : public net::HostHooks {
 public:
  struct Event {
    std::string kind;
    sim::Time t;
    TxHandle h;
  };
  std::vector<Event> events;
  std::vector<net::WirePacket> packets;
  Bytes last_head4;

  void on_rx_head(sim::Time t, TxHandle h) override {
    events.push_back({"head", t, h});
  }
  void on_rx_early_header(sim::Time t, TxHandle h, const Bytes& head4) override {
    events.push_back({"early", t, h});
    last_head4 = head4;
  }
  void on_rx_complete(sim::Time t, net::WirePacket p) override {
    events.push_back({"complete", t, p.handle});
    packets.push_back(std::move(p));
  }
  void on_tx_started(sim::Time t, TxHandle h) override {
    events.push_back({"tx_start", t, h});
  }
  void on_tx_complete(sim::Time t, TxHandle h) override {
    events.push_back({"tx_done", t, h});
  }
  void on_tx_dropped(sim::Time t, TxHandle h) override {
    events.push_back({"tx_drop", t, h});
  }

  sim::Time time_of(const std::string& kind, TxHandle h) const {
    for (const auto& e : events)
      if (e.kind == kind && e.h == h) return e.t;
    return -1;
  }
  bool has(const std::string& kind, TxHandle h) const {
    return time_of(kind, h) >= 0;
  }
};

/// Two hosts on one switch: h0 -> s0 port 1, h1 -> s0 port 2.
struct OneSwitchRig {
  topo::Topology topo;
  sim::EventQueue queue;
  net::NetTiming timing;
  std::unique_ptr<Network> net;
  Recorder h0, h1;

  OneSwitchRig() {
    topo.add_switch(8);
    topo.add_host();
    topo.add_host();
    topo.attach_host(0, 0, 1, topo::PortKind::kSan);
    topo.attach_host(1, 0, 2, topo::PortKind::kSan);
    net = std::make_unique<Network>(topo, timing, queue);
    net->attach_host(0, &h0);
    net->attach_host(1, &h1);
  }

  Bytes gm_packet(std::uint8_t out_port, std::size_t payload_len) {
    return packet::build_packet({out_port}, packet::PacketType::kGm,
                                Bytes(payload_len, 0xAB));
  }
};

TEST(Network, DeliversPacketWithRouteConsumed) {
  OneSwitchRig rig;
  auto h = rig.net->inject(0, rig.gm_packet(2, 16));
  rig.queue.run();
  ASSERT_EQ(rig.h1.packets.size(), 1u);
  const auto& pkt = rig.h1.packets[0];
  EXPECT_EQ(pkt.handle, h);
  EXPECT_EQ(pkt.src_host, 0);
  EXPECT_EQ(packet::leading_route_bytes(pkt.bytes), 0u);
  EXPECT_TRUE(packet::verify_crc(pkt.bytes));
  EXPECT_EQ(rig.net->stats().delivered, 1u);
  EXPECT_EQ(rig.net->in_flight(), 0u);
}

TEST(Network, UnloadedLatencyComposition) {
  OneSwitchRig rig;
  const std::size_t payload = 64;
  auto pkt = rig.gm_packet(2, payload);
  const auto total = static_cast<std::int64_t>(pkt.size());
  auto h = rig.net->inject(0, pkt);
  rig.queue.run();
  const auto& tm = rig.timing;
  // Head: 2 link crossings (hop = latency + 1 byte) + 1 SAN fall-through.
  const sim::Time pipe = 2 * (tm.link_latency_ns + tm.byte_time(1)) +
                         tm.switch_fallthrough_ns;
  EXPECT_EQ(rig.h1.time_of("head", h), pipe);
  // Tail: pipelined behind the head, but not before the source finished
  // streaming (data_ready = byte_time(total)) plus the pipe latency. One
  // route byte was consumed en route.
  const sim::Time tail =
      std::max(pipe + tm.byte_time(total - 1 - 1), tm.byte_time(total) + pipe);
  EXPECT_EQ(rig.h1.time_of("complete", h), tail);
}

TEST(Network, EarlyHeaderFiresAtFourBytes) {
  OneSwitchRig rig;
  auto h = rig.net->inject(0, rig.gm_packet(2, 32));
  rig.queue.run();
  const auto head = rig.h1.time_of("head", h);
  EXPECT_EQ(rig.h1.time_of("early", h), head + rig.timing.byte_time(3));
  // The snapshot holds the leading type bytes, not route bytes.
  ASSERT_GE(rig.h1.last_head4.size(), 2u);
  auto parsed = packet::parse_head(rig.h1.last_head4);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, packet::PacketType::kGm);
}

TEST(Network, TxCompleteBeforeOrAtDelivery) {
  OneSwitchRig rig;
  auto h = rig.net->inject(0, rig.gm_packet(2, 512));
  rig.queue.run();
  const auto tx_done = rig.h0.time_of("tx_done", h);
  const auto complete = rig.h1.time_of("complete", h);
  ASSERT_GE(tx_done, 0);
  EXPECT_LE(tx_done, complete);
  // Sender streamed the full packet: at least len * byte_time.
  EXPECT_GE(tx_done, rig.timing.byte_time(
                         static_cast<std::int64_t>(rig.gm_packet(2, 512).size())));
}

TEST(Network, SecondInjectionWaitsForUplinkChannel) {
  OneSwitchRig rig;
  auto a = rig.net->inject(0, rig.gm_packet(2, 1024));
  auto b = rig.net->inject(0, rig.gm_packet(2, 16));
  rig.queue.run();
  // FIFO: the small packet leaves only after the big one's tail.
  EXPECT_LT(rig.h1.time_of("complete", a), rig.h1.time_of("complete", b));
  EXPECT_GE(rig.net->stats().head_blocks, 1u);
}

TEST(Network, ContentionOnSharedDestinationSerialises) {
  // h0 and h2 both send to h1; the channel into h1 serialises them.
  topo::Topology topo;
  topo.add_switch(8);
  for (int i = 0; i < 3; ++i) topo.add_host();
  topo.attach_host(0, 0, 1);
  topo.attach_host(1, 0, 2);
  topo.attach_host(2, 0, 3);
  sim::EventQueue queue;
  Network net(topo, {}, queue);
  Recorder r0, r1, r2;
  net.attach_host(0, &r0);
  net.attach_host(1, &r1);
  net.attach_host(2, &r2);
  auto pkt = packet::build_packet({2}, packet::PacketType::kGm, Bytes(256, 1));
  net.inject(0, pkt);
  net.inject(2, pkt);
  queue.run();
  ASSERT_EQ(r1.packets.size(), 2u);
  // Deliveries must not overlap: second head >= first tail.
  const auto t0 = r1.events;
  sim::Time first_complete = -1, second_head = -1;
  int heads = 0;
  for (const auto& e : t0) {
    if (e.kind == "head" && ++heads == 2) second_head = e.t;
    if (e.kind == "complete" && first_complete < 0) first_complete = e.t;
  }
  EXPECT_GE(second_head, first_complete);
}

TEST(Network, RxGateBlocksDeliveryUntilReady) {
  OneSwitchRig rig;
  rig.net->set_host_rx_ready(1, false);
  auto h = rig.net->inject(0, rig.gm_packet(2, 16));
  rig.queue.run(1'000'000);
  EXPECT_FALSE(rig.h1.has("complete", h));
  EXPECT_EQ(rig.net->in_flight(), 1u);
  rig.net->set_host_rx_ready(1, true);
  rig.queue.run();
  EXPECT_TRUE(rig.h1.has("complete", h));
}

TEST(Network, BackpressurePropagatesUpstream) {
  // While h1 is not ready, a packet to it occupies the h0->s0 channel, so
  // a later packet from h0 to h1 cannot even start.
  OneSwitchRig rig;
  rig.net->set_host_rx_ready(1, false);
  auto a = rig.net->inject(0, rig.gm_packet(2, 64));
  auto b = rig.net->inject(0, rig.gm_packet(2, 64));
  rig.queue.run(1'000'000);
  EXPECT_FALSE(rig.h0.has("tx_start", b));
  rig.net->set_host_rx_ready(1, true);
  rig.queue.run();
  EXPECT_TRUE(rig.h1.has("complete", a));
  EXPECT_TRUE(rig.h1.has("complete", b));
}

TEST(Network, LanPortsAddFallThroughPenalty) {
  // Same shape as OneSwitchRig but the destination link is a LAN link.
  topo::Topology topo;
  topo.add_switch(8);
  topo.add_host();
  topo.add_host();
  topo.attach_host(0, 0, 1, topo::PortKind::kSan);
  topo.attach_host(1, 0, 2, topo::PortKind::kLan);
  sim::EventQueue queue;
  net::NetTiming tm;
  Network net(topo, tm, queue);
  Recorder r0, r1;
  net.attach_host(0, &r0);
  net.attach_host(1, &r1);
  auto h = net.inject(0, packet::build_packet({2}, packet::PacketType::kGm,
                                              Bytes(8, 0)));
  queue.run();
  const sim::Time san_head = 2 * (tm.link_latency_ns + tm.byte_time(1)) +
                             tm.switch_fallthrough_ns;
  EXPECT_EQ(r1.time_of("head", h), san_head + tm.lan_port_penalty_ns);
}

TEST(Network, MalformedRouteIsDropped) {
  OneSwitchRig rig;
  // Port 7 is unconnected on the switch.
  auto h = rig.net->inject(0, rig.gm_packet(7, 8));
  rig.queue.run();
  EXPECT_TRUE(rig.h0.has("tx_drop", h));
  EXPECT_EQ(rig.net->stats().dropped, 1u);
  EXPECT_EQ(rig.net->in_flight(), 0u);
}

TEST(Network, MissingRouteByteIsDropped) {
  OneSwitchRig rig;
  // No route byte at all: the switch cannot pick an output port.
  auto pkt = packet::build_packet({}, packet::PacketType::kGm, Bytes(8, 0));
  auto h = rig.net->inject(0, pkt);
  rig.queue.run();
  EXPECT_TRUE(rig.h0.has("tx_drop", h));
}

TEST(Network, DataReadyDelaysTail) {
  // A cut-through injection whose source data is only ready far in the
  // future must not complete before data_ready + pipe latency.
  OneSwitchRig rig;
  const sim::Time ready = 1'000'000;
  auto h = rig.net->inject(0, rig.gm_packet(2, 128), ready);
  rig.queue.run();
  EXPECT_GT(rig.h1.time_of("complete", h), ready);
  EXPECT_TRUE(rig.h1.has("head", h));
  EXPECT_LT(rig.h1.time_of("head", h), ready);  // head still cut through
}

TEST(Network, PeekRxVisibleBetweenHeadAndCompletion) {
  OneSwitchRig rig;
  std::optional<bool> peek_ok;
  // Check from inside the early-header hook via a scheduled probe.
  auto h = rig.net->inject(0, rig.gm_packet(2, 256));
  rig.queue.schedule_at(rig.timing.byte_time(40), [&] {
    auto p = rig.net->peek_rx(h);
    peek_ok = p.has_value() && !p->bytes->empty() && p->tail_time > 0;
  });
  rig.queue.run();
  ASSERT_TRUE(peek_ok.has_value());
  EXPECT_TRUE(*peek_ok);
  EXPECT_FALSE(rig.net->peek_rx(h).has_value());  // gone after delivery
}

TEST(Network, ChannelBusyAccounting) {
  OneSwitchRig rig;
  rig.net->inject(0, rig.gm_packet(2, 100));
  rig.queue.run();
  sim::Duration total = 0;
  for (auto ns : rig.net->channel_busy_ns()) total += ns;
  EXPECT_GT(total, 0);
}

TEST(Network, SelfLoopCableRoutesBackIntoSwitch) {
  // A packet can leave through one port of a switch self-cable and re-enter
  // through the other (Fig. 8's "loop in switch 2").
  topo::Topology topo;
  topo.add_switch(8);
  topo.add_host();
  topo.add_host();
  topo.attach_host(0, 0, 0);
  topo.attach_host(1, 0, 1);
  topo.connect({topo::switch_id(0), 4}, {topo::switch_id(0), 5});
  sim::EventQueue queue;
  Network net(topo, {}, queue);
  Recorder r0, r1;
  net.attach_host(0, &r0);
  net.attach_host(1, &r1);
  // Route: s0 out port 4 (self cable, re-enters on 5), then out port 1.
  auto pkt = packet::build_packet({4, 1}, packet::PacketType::kGm, Bytes(8, 0));
  auto h = net.inject(0, pkt);
  queue.run();
  EXPECT_TRUE(r1.has("complete", h));
  // Two switch traversals happened: two fall-throughs in the head time.
  net::NetTiming tm;
  EXPECT_EQ(r1.time_of("head", h),
            3 * (tm.link_latency_ns + tm.byte_time(1)) +
                2 * tm.switch_fallthrough_ns);
}

TEST(Network, InjectFromUnattachedHostThrows) {
  topo::Topology topo;
  topo.add_switch(4);
  topo.add_host();
  topo.attach_host(0, 0, 0);
  sim::EventQueue queue;
  Network net(topo, {}, queue);
  EXPECT_THROW(net.inject(0, Bytes{0x81}), std::logic_error);
}

TEST(Network, EmptyPacketThrows) {
  OneSwitchRig rig;
  EXPECT_THROW(rig.net->inject(0, Bytes{}), std::invalid_argument);
}

TEST(Network, DoubleAttachThrows) {
  OneSwitchRig rig;
  Recorder extra;
  EXPECT_THROW(rig.net->attach_host(0, &extra), std::logic_error);
}

}  // namespace
