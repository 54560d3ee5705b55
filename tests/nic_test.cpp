// Tests for the LANai/MCP model: send and receive pipelines, the ITB
// detection/re-injection machinery (paper §4, Figs. 4-5), the pending flag,
// buffer management and the original-vs-modified MCP differences.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "itb/nic/nic.hpp"
#include "itb/routing/paths.hpp"
#include "itb/routing/table.hpp"
#include "itb/routing/updown.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using packet::Bytes;
using packet::PacketType;

class ClientRecorder : public nic::NicClient {
 public:
  struct Msg {
    sim::Time t;
    PacketType type;
    Bytes payload;
  };
  std::vector<Msg> messages;
  std::vector<std::pair<sim::Time, std::uint64_t>> send_completes;

  void on_message(sim::Time t, PacketType type, Bytes payload) override {
    messages.push_back({t, type, std::move(payload)});
  }
  void on_send_complete(sim::Time t, std::uint64_t token) override {
    send_completes.emplace_back(t, token);
  }
};

/// Three hosts: h0 and h1 on switch s0 (ports 1, 2), h2 on s1 (port 1);
/// s0 port 0 <-> s1 port 0. h1 serves as the in-transit host.
struct Rig {
  topo::Topology topo;
  sim::EventQueue queue;
  net::NetTiming net_timing;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<host::PciBus>> pci;
  std::vector<std::unique_ptr<nic::Nic>> nics;
  std::vector<std::unique_ptr<ClientRecorder>> clients;

  explicit Rig(const nic::McpOptions& options = {},
               const nic::LanaiTiming& lanai = {}) {
    topo.add_switch(8);
    topo.add_switch(8);
    for (int i = 0; i < 3; ++i) topo.add_host();
    topo.connect_switches(0, 0, 1, 0);
    topo.attach_host(0, 0, 1);
    topo.attach_host(1, 0, 2);
    topo.attach_host(2, 1, 1);
    net = std::make_unique<net::Network>(topo, net_timing, queue);
    for (std::uint16_t h = 0; h < 3; ++h) {
      pci.push_back(std::make_unique<host::PciBus>(queue, host::PciTiming{}));
      nics.push_back(std::make_unique<nic::Nic>(queue, *net, *pci[h],
                                                h, lanai, options));
      clients.push_back(std::make_unique<ClientRecorder>());
      nics[h]->set_client(clients[h].get());
    }
    // Plain routes: h0 -> h2 (out s0 port 0, then s1 port 1), etc.
    nics[0]->set_route(2, {{0, 1}});
    nics[0]->set_route(1, {{2}});
    nics[1]->set_route(0, {{1}});
    nics[1]->set_route(2, {{0, 1}});
    nics[2]->set_route(0, {{0, 1}});
    nics[2]->set_route(1, {{0, 2}});
  }

  void run() { queue.run(); }
};

TEST(Nic, EndToEndDelivery) {
  Rig rig;
  Bytes payload(100, 0x5A);
  auto token = rig.nics[0]->post_send(2, payload);
  rig.run();
  ASSERT_EQ(rig.clients[2]->messages.size(), 1u);
  EXPECT_EQ(rig.clients[2]->messages[0].payload, payload);
  EXPECT_EQ(rig.clients[2]->messages[0].type, PacketType::kGm);
  ASSERT_EQ(rig.clients[0]->send_completes.size(), 1u);
  EXPECT_EQ(rig.clients[0]->send_completes[0].second, token);
  EXPECT_EQ(rig.nics[0]->stats().sent, 1u);
  EXPECT_EQ(rig.nics[2]->stats().received, 1u);
  EXPECT_EQ(rig.nics[2]->stats().delivered_to_host, 1u);
}

TEST(Nic, RawFrameIsCheckedAgainstItsCrc) {
  // A frame injected raw carries no "CRC intact" mark from a framing NIC,
  // so the receiving MCP recomputes its CRC: a wrong CRC byte discards the
  // packet, a right one delivers it.
  Rig rig;
  Bytes bad = packet::build_packet({0, 1}, PacketType::kGm, Bytes(64, 0x11));
  bad.back() ^= 0xFF;
  rig.net->inject(0, std::move(bad));
  rig.net->inject(0, packet::build_packet({0, 1}, PacketType::kGm,
                                          Bytes(64, 0x22)));
  rig.run();
  EXPECT_EQ(rig.nics[2]->stats().rx_bad_crc, 1u);
  ASSERT_EQ(rig.clients[2]->messages.size(), 1u);
  EXPECT_EQ(rig.clients[2]->messages[0].payload, Bytes(64, 0x22));
}

TEST(Nic, ManyPacketsArriveInOrder) {
  Rig rig;
  for (int i = 0; i < 20; ++i)
    rig.nics[0]->post_send(2, Bytes{static_cast<std::uint8_t>(i)});
  rig.run();
  ASSERT_EQ(rig.clients[2]->messages.size(), 20u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(rig.clients[2]->messages[static_cast<size_t>(i)].payload[0], i);
}

TEST(Nic, LatencyGrowsWithMessageSize) {
  sim::Time t_small, t_big;
  {
    Rig rig;
    rig.nics[0]->post_send(2, Bytes(4, 0));
    rig.run();
    t_small = rig.clients[2]->messages.at(0).t;
  }
  {
    Rig rig;
    rig.nics[0]->post_send(2, Bytes(4096, 0));
    rig.run();
    t_big = rig.clients[2]->messages.at(0).t;
  }
  // 4092 extra bytes cross the wire once (~25.6 us at 6.25 ns/B); PCI
  // crossings add more. Loose lower bound: the wire time alone.
  EXPECT_GT(t_big - t_small, 25'000);
}

TEST(Nic, OversizedPayloadThrows) {
  Rig rig;
  EXPECT_THROW(rig.nics[0]->post_send(2, Bytes(nic::Nic::kMtu + 1, 0)),
               std::invalid_argument);
}

TEST(Nic, LoopbackThrows) {
  Rig rig;
  EXPECT_THROW(rig.nics[0]->post_send(0, Bytes(4, 0)), std::invalid_argument);
}

TEST(Nic, MissingRouteThrows) {
  Rig rig;
  // h1 -> h1 impossible; h0 has routes to 1 and 2 only. Wipe one.
  rig.nics[0]->set_route(2, {});
  EXPECT_THROW(rig.nics[0]->post_send(2, Bytes(4, 0)), std::logic_error);
}

TEST(Nic, OwnHostHasNoRoute) {
  // A row serves every host on its switch, so the entry at a NIC's own
  // index is a switch-mate's route; the NIC never reads it.
  Rig rig;
  rig.nics[0]->set_route(0, {{1}});  // even an explicit one
  EXPECT_TRUE(rig.nics[0]->route(0).empty());
  EXPECT_FALSE(rig.nics[0]->has_route(0));
  EXPECT_TRUE(rig.nics[0]->has_route(2));

  // A table install: h0 and h1 share s0's row.
  const routing::UpDown ud(rig.topo);
  const routing::Router router(ud);
  const routing::RouteTable table(router, routing::Policy::kItb);
  for (const auto& nic : rig.nics) nic->load_routes(table);
  for (std::uint16_t h = 0; h < 3; ++h) {
    EXPECT_TRUE(rig.nics[h]->route(h).empty()) << h;
    EXPECT_FALSE(rig.nics[h]->has_route(h)) << h;
    EXPECT_TRUE(rig.nics[h]->has_route((h + 1) % 3)) << h;
  }
  EXPECT_EQ(rig.nics[0]->route(2).header().body().data(),
            rig.nics[1]->route(2).header().body().data());
  EXPECT_EQ(rig.nics[0]->route(1).src_host(), 0);
  EXPECT_EQ(rig.nics[1]->route(0).src_host(), 1);

  // set_route rebuilds the row from the NIC's own reading of it.
  rig.nics[1]->set_route(2, {{0, 1}});
  EXPECT_FALSE(rig.nics[1]->has_route(1));
  EXPECT_TRUE(rig.nics[1]->has_route(0));
  EXPECT_EQ(rig.nics[0]->route(2).header().body().data(),
            table.route(0, 2).header().body().data())
      << "the mate still holds the table's row";
}

// ------------------------------------------------------------------- ITB --

/// Sends h0 -> h2 with an ITB at h1: segments (s0 port 2) then (s0 port 0,
/// s1 port 1).
std::vector<packet::Route> itb_segments() { return {{2}, {0, 1}}; }

TEST(Nic, ItbForwardingDeliversEndToEnd) {
  Rig rig;
  rig.nics[0]->set_route(2, itb_segments());
  Bytes payload(64, 0x77);
  rig.nics[0]->post_send(2, payload);
  rig.run();
  ASSERT_EQ(rig.clients[2]->messages.size(), 1u);
  EXPECT_EQ(rig.clients[2]->messages[0].payload, payload);
  // The in-transit host forwarded in firmware: nothing reached its client.
  EXPECT_TRUE(rig.clients[1]->messages.empty());
  EXPECT_EQ(rig.nics[1]->stats().itb_forwarded, 1u);
  EXPECT_EQ(rig.nics[1]->stats().delivered_to_host, 0u);
}

TEST(Nic, ItbForwardingSlowerThanDirectButBounded) {
  sim::Time direct, via_itb;
  {
    Rig rig;
    rig.nics[0]->post_send(2, Bytes(64, 1));
    rig.run();
    direct = rig.clients[2]->messages.at(0).t;
  }
  {
    Rig rig;
    rig.nics[0]->set_route(2, itb_segments());
    rig.nics[0]->post_send(2, Bytes(64, 1));
    rig.run();
    via_itb = rig.clients[2]->messages.at(0).t;
  }
  EXPECT_GT(via_itb, direct);
  // The paper's per-ITB overhead is ~1.3 us; allow generous headroom but
  // catch pathological behaviour (e.g. store-and-forward of the payload).
  EXPECT_LT(via_itb - direct, 4 * sim::kUs);
}

TEST(Nic, ItbCutThroughOverheadIndependentOfLength) {
  // Virtual cut-through: the ITB penalty must not grow with message size
  // (Fig. 8 shows a flat ~1.3 us overhead).
  auto measure = [](std::size_t len) {
    sim::Time direct, via_itb;
    {
      Rig rig;
      rig.nics[0]->post_send(2, Bytes(len, 1));
      rig.run();
      direct = rig.clients[2]->messages.at(0).t;
    }
    {
      Rig rig;
      rig.nics[0]->set_route(2, itb_segments());
      rig.nics[0]->post_send(2, Bytes(len, 1));
      rig.run();
      via_itb = rig.clients[2]->messages.at(0).t;
    }
    return via_itb - direct;
  };
  const auto small = measure(16);
  const auto big = measure(4000);
  EXPECT_NEAR(static_cast<double>(big), static_cast<double>(small),
              static_cast<double>(small) * 0.25);
}

TEST(Nic, ItbPendingFlagWhenSendBusy) {
  // Keep h1's send DMA busy with its own traffic while an ITB packet
  // arrives: the pending flag must be used and the packet still delivered.
  Rig rig;
  rig.nics[0]->set_route(2, itb_segments());
  // h1 floods h2 so its send DMA is busy when the in-transit packet lands;
  // the ITB packet is posted once the flood is in full swing.
  for (int i = 0; i < 4; ++i) rig.nics[1]->post_send(2, Bytes(4000, 2));
  rig.queue.schedule_at(20 * sim::kUs,
                        [&] { rig.nics[0]->post_send(2, Bytes(512, 3)); });
  rig.run();
  EXPECT_EQ(rig.nics[1]->stats().itb_forwarded, 1u);
  EXPECT_GE(rig.nics[1]->stats().itb_pending_hits, 1u);
  ASSERT_EQ(rig.clients[2]->messages.size(), 5u);
}

TEST(Nic, PendingItbServedWhenOwnSendIsDropped) {
  // h1's one send of its own waits at s0 behind h0's long packet and is
  // then dropped at s1, whose port 7 is dangling. Meanwhile an ITB packet
  // from h2 to h0 lands at h1 and finds the send DMA busy. The drop must
  // hand the freed DMA to that pending packet (Fig. 5): h1 has nothing
  // else to send, so no later send would.
  Rig rig;
  rig.nics[1]->set_route(2, {{0, 7}});
  rig.nics[2]->set_route(0, {{0, 2}, {1}});  // through h1
  rig.nics[0]->post_send(2, Bytes(4000, 1));  // holds s0 -> s1 ~11-36 us
  rig.queue.schedule_at(14 * sim::kUs,
                        [&] { rig.nics[1]->post_send(2, Bytes(64, 2)); });
  rig.queue.schedule_at(16 * sim::kUs,
                        [&] { rig.nics[2]->post_send(0, Bytes(64, 3)); });
  rig.run();
  EXPECT_EQ(rig.net->stats().dropped, 1u);
  EXPECT_EQ(rig.nics[1]->stats().itb_pending_hits, 1u);
  EXPECT_EQ(rig.nics[1]->stats().itb_forwarded, 1u);
  EXPECT_EQ(rig.nics[1]->itb_pending_depth(), 0u);
  ASSERT_EQ(rig.clients[0]->messages.size(), 1u);
  EXPECT_EQ(rig.clients[0]->messages[0].payload, Bytes(64, 3));
}

TEST(Nic, PendingItbServedWhenOwnSendIsUnroutable) {
  // The same hand-over on the unroutable-drop path. A long SDMA step keeps
  // h1's MCP busy, so its first send's job queues behind the second's SDMA
  // with the send DMA already claimed, and the Early Recv check of h2's
  // ITB packet (higher priority) runs first and parks the packet. h1's
  // route to h0 is withdrawn before the send job runs, so both of h1's
  // sends are dropped as unroutable; the first drop must serve the parked
  // packet, and nothing else of h1's would.
  nic::LanaiTiming lanai;
  lanai.sdma_process = 1000;  // 30 us per SDMA step
  Rig rig({}, lanai);
  rig.nics[2]->set_route(0, {{0, 2}, {1}});  // through h1
  rig.nics[1]->post_send(0, Bytes(64, 1));
  rig.nics[1]->post_send(0, Bytes(64, 2));
  rig.nics[2]->post_send(0, Bytes(64, 3));
  rig.queue.schedule_at(45 * sim::kUs, [&] { rig.nics[1]->set_route(0, {}); });
  rig.run();
  EXPECT_EQ(rig.nics[1]->stats().dropped_unroutable, 2u);
  EXPECT_EQ(rig.nics[1]->stats().itb_pending_hits, 1u);
  EXPECT_EQ(rig.nics[1]->stats().itb_forwarded, 1u);
  EXPECT_EQ(rig.nics[1]->itb_pending_depth(), 0u);
  ASSERT_EQ(rig.clients[0]->messages.size(), 1u);
  EXPECT_EQ(rig.clients[0]->messages[0].payload, Bytes(64, 3));
}

TEST(Nic, OriginalMcpDiscardsItbPackets) {
  Rig rig(nic::McpOptions::original_gm());
  rig.nics[0]->set_route(2, itb_segments());
  rig.nics[0]->post_send(2, Bytes(16, 1));
  rig.run();
  EXPECT_TRUE(rig.clients[2]->messages.empty());
  EXPECT_EQ(rig.nics[1]->stats().rx_unknown_type, 1u);
  EXPECT_EQ(rig.nics[1]->stats().itb_forwarded, 0u);
}

TEST(Nic, LateDetectionAblationStillDelivers) {
  nic::McpOptions opts;
  opts.early_recv = false;
  Rig rig(opts);
  rig.nics[0]->set_route(2, itb_segments());
  rig.nics[0]->post_send(2, Bytes(256, 9));
  rig.run();
  ASSERT_EQ(rig.clients[2]->messages.size(), 1u);
  EXPECT_EQ(rig.nics[1]->stats().itb_forwarded, 1u);
}

TEST(Nic, LateDetectionIsSlowerForLongPackets) {
  auto arrival = [](bool early) {
    nic::McpOptions opts;
    opts.early_recv = early;
    Rig rig(opts);
    rig.nics[0]->set_route(2, itb_segments());
    rig.nics[0]->post_send(2, Bytes(4000, 9));
    rig.run();
    return rig.clients[2]->messages.at(0).t;
  };
  // Early detection re-injects while receiving; late detection waits for
  // the full packet: roughly one extra packet transmission time.
  EXPECT_GT(arrival(false), arrival(true) + 10 * sim::kUs);
}

TEST(Nic, RecvSideReinjectionSavesADispatch) {
  auto arrival = [](bool recv_side) {
    nic::McpOptions opts;
    opts.recv_side_reinjection = recv_side;
    Rig rig(opts);
    rig.nics[0]->set_route(2, itb_segments());
    rig.nics[0]->post_send(2, Bytes(16, 9));
    rig.run();
    return rig.clients[2]->messages.at(0).t;
  };
  const auto fast = arrival(true);
  const auto slow = arrival(false);
  nic::LanaiTiming lt;
  EXPECT_EQ(slow - fast, lt.cycles(lt.dispatch));
}

TEST(Nic, ModifiedMcpAddsReceiveOverheadForNormalPackets) {
  // Fig. 7: the ITB-capable MCP costs itb_recv_extra cycles per received
  // packet even when no ITBs are used.
  auto arrival = [](bool itb_support) {
    nic::McpOptions opts;
    opts.itb_support = itb_support;
    Rig rig(opts);
    rig.nics[0]->post_send(2, Bytes(128, 9));
    rig.run();
    return rig.clients[2]->messages.at(0).t;
  };
  nic::LanaiTiming lt;
  EXPECT_EQ(arrival(true) - arrival(false), lt.cycles(lt.itb_recv_extra));
}

TEST(Nic, BackpressureWhenReceiveBuffersExhausted) {
  // Default mode: two receive buffers, no drops — the link stalls instead.
  Rig rig;
  for (int i = 0; i < 10; ++i) rig.nics[0]->post_send(2, Bytes(2048, 7));
  rig.run();
  EXPECT_EQ(rig.clients[2]->messages.size(), 10u);
  EXPECT_EQ(rig.nics[2]->stats().dropped_no_buffer, 0u);
}

TEST(Nic, DropWhenFullDropsInsteadOfStalling) {
  nic::McpOptions opts;
  opts.drop_when_full = true;
  opts.recv_buffers = 1;
  Rig rig(opts);
  // Make host-side draining slow by sending many large packets at once.
  for (int i = 0; i < 8; ++i) rig.nics[0]->post_send(2, Bytes(4000, 7));
  rig.run();
  EXPECT_GT(rig.nics[2]->stats().dropped_no_buffer, 0u);
  EXPECT_LT(rig.clients[2]->messages.size(), 8u);
  EXPECT_EQ(rig.nics[2]->stats().dropped_no_buffer +
                rig.clients[2]->messages.size(),
            8u);
}

TEST(Nic, BidirectionalTrafficCompletes) {
  Rig rig;
  rig.nics[0]->post_send(2, Bytes(100, 1));
  rig.nics[2]->post_send(0, Bytes(100, 2));
  rig.nics[1]->post_send(2, Bytes(100, 3));
  rig.run();
  EXPECT_EQ(rig.clients[2]->messages.size(), 2u);
  EXPECT_EQ(rig.clients[0]->messages.size(), 1u);
}

TEST(Nic, SendTokensCompleteInOrder) {
  Rig rig;
  std::vector<std::uint64_t> tokens;
  for (int i = 0; i < 5; ++i)
    tokens.push_back(rig.nics[0]->post_send(2, Bytes(64, 0)));
  rig.run();
  ASSERT_EQ(rig.clients[0]->send_completes.size(), 5u);
  for (size_t i = 0; i < 5; ++i)
    EXPECT_EQ(rig.clients[0]->send_completes[i].second, tokens[i]);
}

TEST(Nic, CpuAccumulatesBusyTime) {
  Rig rig;
  rig.nics[0]->post_send(2, Bytes(64, 0));
  rig.run();
  EXPECT_GT(rig.nics[0]->cpu().busy_ns(), 0);
  EXPECT_GT(rig.nics[2]->cpu().busy_ns(), 0);
}

TEST(Nic, MappingPacketsDeliveredWithType) {
  Rig rig;
  rig.nics[0]->post_send(2, Bytes(10, 0xEE), PacketType::kMapping);
  rig.run();
  ASSERT_EQ(rig.clients[2]->messages.size(), 1u);
  EXPECT_EQ(rig.clients[2]->messages[0].type, PacketType::kMapping);
}

}  // namespace
