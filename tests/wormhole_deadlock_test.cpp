// Deadlock demonstrations: the wormhole network model must actually wedge
// when routes have cyclic channel dependencies, and must not when the ITB
// mechanism breaks the cycle — the dynamic counterpart of the static CDG
// checker, closing the loop between routing theory and the simulator.
#include <gtest/gtest.h>

#include "itb/engine/engine.hpp"
#include "itb/net/network.hpp"
#include "itb/packet/format.hpp"
#include "itb/routing/deadlock.hpp"
#include "itb/sim/rng.hpp"
#include "itb/topo/builders.hpp"
#include "itb/topo/topology.hpp"

namespace {

using namespace itb;
using packet::Bytes;

/// Minimal hooks: count deliveries, track in-flight.
class Counter : public net::HostHooks {
 public:
  int delivered = 0;
  void on_rx_head(sim::Time, net::TxHandle) override {}
  void on_rx_early_header(sim::Time, net::TxHandle, const Bytes&) override {}
  void on_rx_complete(sim::Time, net::WirePacket) override { ++delivered; }
  void on_tx_started(sim::Time, net::TxHandle) override {}
  void on_tx_complete(sim::Time, net::TxHandle) override {}
};

/// A ring of four switches, one host per switch, port 0-1 around the ring,
/// port 2 to the host. Routes that go two hops clockwise from every host
/// produce the canonical cyclic channel dependency.
struct RingRig {
  topo::Topology topo;
  sim::EventQueue queue;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<Counter>> hosts;

  RingRig() {
    for (int i = 0; i < 4; ++i) topo.add_switch(4);
    for (int i = 0; i < 4; ++i) topo.add_host();
    // s0 p1 -> s1 p0, s1 p1 -> s2 p0, s2 p1 -> s3 p0, s3 p1 -> s0 p0.
    for (std::uint16_t s = 0; s < 4; ++s)
      topo.connect_switches(s, 1, static_cast<std::uint16_t>((s + 1) % 4), 0);
    for (std::uint16_t h = 0; h < 4; ++h) topo.attach_host(h, h, 2);
    net = std::make_unique<net::Network>(topo, net::NetTiming{}, queue);
    for (std::uint16_t h = 0; h < 4; ++h) {
      hosts.push_back(std::make_unique<Counter>());
      net->attach_host(h, hosts.back().get());
    }
  }
};

TEST(WormholeDeadlock, CyclicTwoHopRoutesWedgeTheRing) {
  // Each host sends 2 hops clockwise; with long packets each worm holds
  // its first ring channel while requesting the next one, which another
  // worm holds: classic circular wait. The simulation must stall with all
  // four packets in flight and nothing delivered.
  RingRig rig;
  for (std::uint16_t h = 0; h < 4; ++h) {
    // Route: out ring port (1) at own switch, ring port (1) at next, host
    // port (2) at the switch after that.
    auto pkt = packet::build_packet({1, 1, 2}, packet::PacketType::kGm,
                                    Bytes(2000, h));
    rig.net->inject(h, std::move(pkt));
  }
  rig.queue.run();
  int delivered = 0;
  for (auto& h : rig.hosts) delivered += h->delivered;
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rig.net->in_flight(), 4u);
  EXPECT_EQ(rig.queue.pending(), 0u);  // stalemate: no event can fire
}

TEST(WormholeDeadlock, ShortPacketsMayStillDrainButLongOnesWedge) {
  // Sanity contrast: a single sender on the same routes is fine.
  RingRig rig;
  auto pkt = packet::build_packet({1, 1, 2}, packet::PacketType::kGm,
                                  Bytes(2000, 1));
  rig.net->inject(0, std::move(pkt));
  rig.queue.run();
  EXPECT_EQ(rig.hosts[2]->delivered, 1);
  EXPECT_EQ(rig.net->in_flight(), 0u);
}

TEST(WormholeDeadlock, ItbEjectionBreaksTheCycle) {
  // Same pressure, but each packet is ejected at the intermediate switch's
  // host and re-injected (two one-hop segments). Emulate the in-transit
  // NIC with hooks that re-inject on completion: nothing can wedge because
  // every worm now spans a single ring channel.
  RingRig rig;

  class Forwarder : public net::HostHooks {
   public:
    net::Network* net = nullptr;
    std::uint16_t host = 0;
    int delivered = 0;
    void on_rx_head(sim::Time, net::TxHandle) override {}
    void on_rx_early_header(sim::Time, net::TxHandle, const Bytes&) override {}
    void on_rx_complete(sim::Time, net::WirePacket pkt) override {
      auto head = packet::parse_head(pkt.bytes);
      if (head && head->type == packet::PacketType::kItb) {
        net->inject(host, packet::strip_itb_stage(pkt.bytes));
        return;
      }
      ++delivered;
    }
    void on_tx_started(sim::Time, net::TxHandle) override {}
    void on_tx_complete(sim::Time, net::TxHandle) override {}
  };

  topo::Topology topo;
  for (int i = 0; i < 4; ++i) topo.add_switch(4);
  for (int i = 0; i < 4; ++i) topo.add_host();
  for (std::uint16_t s = 0; s < 4; ++s)
    topo.connect_switches(s, 1, static_cast<std::uint16_t>((s + 1) % 4), 0);
  for (std::uint16_t h = 0; h < 4; ++h) topo.attach_host(h, h, 2);
  sim::EventQueue queue;
  net::Network net(topo, {}, queue);
  std::vector<std::unique_ptr<Forwarder>> fwd;
  for (std::uint16_t h = 0; h < 4; ++h) {
    fwd.push_back(std::make_unique<Forwarder>());
    fwd.back()->net = &net;
    fwd.back()->host = h;
    net.attach_host(h, fwd.back().get());
  }
  for (std::uint16_t h = 0; h < 4; ++h) {
    // Segment 1: one ring hop, eject at the next switch's host (port 2).
    // Segment 2: one ring hop, out to the destination host.
    auto pkt = packet::build_itb_packet({{1, 2}, {1, 2}},
                                        packet::PacketType::kGm,
                                        Bytes(2000, h));
    net.inject(h, std::move(pkt));
  }
  queue.run();
  int delivered = 0;
  for (auto& f : fwd) delivered += f->delivered;
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(WormholeDeadlock, TwoLaneLadderMakesTheRingCdgAcyclic) {
  // Static counterpart of the VC-escape claim on the exact rig that wedges
  // above. One lane: the four 2-hop routes close the canonical cycle. Two
  // lanes under the ladder (root s0, so s1->s2 is a down traversal and
  // s2->s3 is up): host 1's second traversal crosses a down->up boundary
  // and rides lane 1, which breaks the only cycle.
  RingRig rig;
  auto ring_channel = [](std::uint16_t s) {
    // Link s was created s -> s+1, so clockwise traversal is `forward`.
    return topo::Channel{static_cast<topo::LinkId>(s), true};
  };
  using Node = routing::DependencyGraph::Node;

  routing::DependencyGraph one_lane(rig.topo);
  for (std::uint16_t h = 0; h < 4; ++h)
    one_lane.add_edge(Node::of_channel(ring_channel(h)),
                      Node::of_channel(ring_channel((h + 1) % 4)));
  EXPECT_TRUE(one_lane.has_cycle());

  auto eng = engine::make_engine({routing::Policy::kVcEscape, 2});
  eng->bind(routing::UpDown(rig.topo, 0), rig.topo, {});
  routing::DependencyGraph two_lane(rig.topo, 2);
  std::vector<std::uint8_t> second_lanes;
  for (std::uint16_t h = 0; h < 4; ++h) {
    net::LaneState state;
    const auto c0 = ring_channel(h);
    const auto c1 = ring_channel((h + 1) % 4);
    const std::uint8_t l0 = eng->ladder().next(state, c0);
    const std::uint8_t l1 = eng->ladder().next(state, c1);
    two_lane.add_edge(Node::of_channel(c0, l0), Node::of_channel(c1, l1));
    second_lanes.push_back(l1);
  }
  // Exactly one route (host 1's, crossing the valley under root s0) is
  // pushed onto the escape lane.
  EXPECT_EQ(second_lanes, (std::vector<std::uint8_t>{0, 1, 0, 0}));
  EXPECT_FALSE(two_lane.has_cycle());
}

TEST(WormholeDeadlock, VcEscapeLanesPreventTheRingWedge) {
  // The live counterpart: identical injection pattern to
  // CyclicTwoHopRoutesWedgeTheRing, but with the 2-lane escape engine
  // arbitrating — every packet must now deliver and the network drain.
  RingRig rig;
  auto eng = engine::make_engine({routing::Policy::kVcEscape, 2});
  eng->bind(routing::UpDown(rig.topo, 0), rig.topo, {});
  rig.net->set_ladder(&eng->ladder());
  for (std::uint16_t h = 0; h < 4; ++h) {
    auto pkt = packet::build_packet({1, 1, 2}, packet::PacketType::kGm,
                                    Bytes(2000, h));
    rig.net->inject(h, std::move(pkt));
  }
  rig.queue.run();
  int delivered = 0;
  for (auto& h : rig.hosts) delivered += h->delivered;
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(rig.net->in_flight(), 0u);
  EXPECT_EQ(rig.queue.pending(), 0u);
}

TEST(WormholeDeadlock, PerLaneCdgAcyclicOnGeneratedFabricsForEveryEngine) {
  // Randomized static sweep: solve real tables over generated fat-tree,
  // Clos and irregular fabrics and demand an acyclic per-lane CDG from
  // every engine — the deadlock-freedom claim each one rests on.
  std::vector<topo::Topology> fabrics;
  fabrics.push_back(topo::make_fat_tree(4));
  fabrics.push_back(topo::make_clos(4, 8, 8));
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    sim::Rng rng(seed);
    topo::IrregularSpec spec;
    spec.switches = 12;
    spec.hosts_per_switch = 2;
    fabrics.push_back(topo::make_random_irregular(spec, rng));
  }
  const engine::EngineSpec specs[] = {
      {routing::Policy::kUpDown, 1},
      {routing::Policy::kItb, 1},
      {routing::Policy::kVcEscape, 2},
      {routing::Policy::kVcEscape, 3},
  };
  for (std::size_t f = 0; f < fabrics.size(); ++f) {
    const auto& t = fabrics[f];
    routing::UpDown ud(t, 0);
    routing::Router router(ud);
    for (const auto& spec : specs) {
      auto eng = engine::make_engine(spec);
      eng->bind(ud, t, {});
      routing::RouteTable table(router, eng->policy(), 1, spec.lanes);
      EXPECT_TRUE(engine::verify_deadlock_free(*eng, table, t))
          << "fabric " << f << " engine " << eng->name() << " lanes "
          << spec.lanes;
    }
  }
}

TEST(WormholeDeadlock, BackpressuredHostCanWedgeDependents) {
  // A not-ready NIC stalls a worm, which holds its channels and stalls an
  // unrelated worm needing one of them — the contention cascade of §1.
  RingRig rig;
  rig.net->set_host_rx_ready(2, false);
  // h0 -> h2 (two ring hops), then h1 -> h3 (needs the s1->s2 channel the
  // first worm holds).
  rig.net->inject(0, packet::build_packet({1, 1, 2}, packet::PacketType::kGm,
                                          Bytes(500, 1)));
  rig.queue.run(2'000'000);
  rig.net->inject(1, packet::build_packet({1, 1, 2}, packet::PacketType::kGm,
                                          Bytes(500, 2)));
  rig.queue.run(4'000'000);
  EXPECT_EQ(rig.hosts[3]->delivered, 0);  // cascaded stall
  rig.net->set_host_rx_ready(2, true);    // release
  rig.queue.run();
  EXPECT_EQ(rig.hosts[2]->delivered, 1);
  EXPECT_EQ(rig.hosts[3]->delivered, 1);
}

}  // namespace
