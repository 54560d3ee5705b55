// SlabPool / FlatFifo unit + property tests, and the steady-state
// allocation oracles: zero for the pooled network hot path, at most one wire
// buffer per packet for a whole cluster (DESIGN.md §6i).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "itb/core/cluster.hpp"
#include "itb/net/network.hpp"
#include "itb/packet/format.hpp"
#include "itb/sim/alloc_hook.hpp"
#include "itb/sim/event_queue.hpp"
#include "itb/sim/flat_fifo.hpp"
#include "itb/sim/slab_pool.hpp"
#include "itb/topo/builders.hpp"
#include "itb/topo/topology.hpp"

namespace {

using namespace itb;

TEST(SlabPool, AcquireReleaseRoundTrip) {
  sim::SlabPool<int> pool;
  auto [h, p] = pool.acquire();
  *p = 42;
  EXPECT_TRUE(static_cast<bool>(h));
  EXPECT_EQ(pool.get(h), p);
  EXPECT_EQ(*pool.get(h), 42);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_TRUE(pool.release(h));
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SlabPool, NullHandleIsRejected) {
  sim::SlabPool<int> pool;
  sim::PoolHandle null;
  EXPECT_FALSE(static_cast<bool>(null));
  EXPECT_EQ(pool.get(null), nullptr);
  EXPECT_FALSE(pool.release(null));
}

TEST(SlabPool, StaleHandleIsDetected) {
  sim::SlabPool<int> pool;
  auto [h, p] = pool.acquire();
  *p = 7;
  ASSERT_TRUE(pool.release(h));
  // Double release and use-after-release both miss on the generation.
  EXPECT_FALSE(pool.release(h));
  EXPECT_EQ(pool.get(h), nullptr);
  // The slot recycles (LIFO) under a new generation; the old handle still
  // misses while the new one works.
  auto [h2, p2] = pool.acquire();
  EXPECT_EQ(h2.slot, h.slot);
  EXPECT_NE(h2.gen, h.gen);
  EXPECT_EQ(pool.get(h), nullptr);
  EXPECT_EQ(pool.get(h2), p2);
  EXPECT_FALSE(pool.release(h));
  EXPECT_TRUE(pool.release(h2));
}

TEST(SlabPool, GrowthKeepsPointersStable) {
  sim::SlabPool<std::uint32_t, 4> pool;  // tiny slabs force growth
  std::vector<std::pair<sim::PoolHandle, std::uint32_t*>> objs;
  for (std::uint32_t i = 0; i < 100; ++i) {
    auto [h, p] = pool.acquire();
    *p = i;
    objs.emplace_back(h, p);
  }
  EXPECT_EQ(pool.slab_count(), 25u);
  EXPECT_EQ(pool.capacity(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(pool.get(objs[i].first), objs[i].second);
    EXPECT_EQ(*objs[i].second, i);
  }
}

TEST(SlabPool, HighWaterTracksPeakLive) {
  sim::SlabPool<int, 8> pool;
  std::vector<sim::PoolHandle> hs;
  for (int i = 0; i < 10; ++i) hs.push_back(pool.acquire().first);
  EXPECT_EQ(pool.high_water(), 10u);
  for (auto h : hs) pool.release(h);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.high_water(), 10u);  // peak, not current
  for (int i = 0; i < 5; ++i) hs[i] = pool.acquire().first;
  EXPECT_EQ(pool.high_water(), 10u);
}

TEST(SlabPool, WarmReuseKeepsVectorCapacity) {
  sim::SlabPool<std::vector<int>> pool;
  auto [h, v] = pool.acquire();
  v->resize(1000);
  const auto cap = v->capacity();
  const int* data = v->data();
  ASSERT_TRUE(pool.release(h));
  auto [h2, v2] = pool.acquire();  // LIFO: same slot, same object
  EXPECT_EQ(v2, v);
  EXPECT_EQ(v2->capacity(), cap);
  EXPECT_EQ(v2->data(), data);  // buffer survived the recycle
  pool.release(h2);
}

TEST(SlabPool, RandomizedAgainstReference) {
  sim::SlabPool<std::uint64_t, 16> pool;
  std::mt19937 rng(0xC0FFEE);
  // Reference model: live handles and the value each object must hold.
  std::vector<sim::PoolHandle> live;
  std::unordered_map<std::uint64_t, std::uint64_t> expected;  // packed handle
  std::vector<sim::PoolHandle> stale;
  const auto key = [](sim::PoolHandle h) {
    return (static_cast<std::uint64_t>(h.slot) << 32) | h.gen;
  };
  std::uint64_t next_value = 1;
  for (int step = 0; step < 20'000; ++step) {
    const bool acquire = live.empty() || (rng() % 100) < 55;
    if (acquire) {
      auto [h, p] = pool.acquire();
      *p = next_value;
      expected[key(h)] = next_value;
      ++next_value;
      live.push_back(h);
    } else {
      const std::size_t i = rng() % live.size();
      const sim::PoolHandle h = live[i];
      EXPECT_EQ(*pool.get(h), expected.at(key(h)));
      EXPECT_TRUE(pool.release(h));
      expected.erase(key(h));
      live[i] = live.back();
      live.pop_back();
      if (stale.size() < 64) stale.push_back(h);
    }
    ASSERT_EQ(pool.live(), live.size());
  }
  for (const auto h : live) EXPECT_EQ(*pool.get(h), expected.at(key(h)));
  for (const auto h : stale) {
    EXPECT_EQ(pool.get(h), nullptr);
    EXPECT_FALSE(pool.release(h));
  }
  EXPECT_GE(pool.high_water(), live.size());
  EXPECT_GE(pool.capacity(), pool.high_water());
}

TEST(FlatFifo, FifoOrderAndWrap) {
  sim::FlatFifo<int> q;
  EXPECT_TRUE(q.empty());
  // Push/pop through several capacity doublings and wraps.
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) q.push_back(next_in++);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(q.take_front(), next_out++);
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
  while (!q.empty()) EXPECT_EQ(q.take_front(), next_out++);
  EXPECT_EQ(next_in, next_out);
}

TEST(FlatFifo, RandomizedAgainstDeque) {
  sim::FlatFifo<std::uint32_t> q;
  std::deque<std::uint32_t> ref;
  std::mt19937 rng(1234);
  std::uint32_t next = 0;
  for (int step = 0; step < 30'000; ++step) {
    switch (rng() % 10) {
      case 0: case 1: case 2: case 3: case 4: {  // push
        const std::uint32_t v = next++ % 37;  // duplicates on purpose
        q.push_back(v);
        ref.push_back(v);
        break;
      }
      case 5: case 6: case 7:  // pop
        if (!ref.empty()) {
          EXPECT_EQ(q.front(), ref.front());
          q.pop_front();
          ref.pop_front();
        }
        break;
      case 8: {  // erase_value
        const std::uint32_t v = rng() % 37;
        const auto removed = q.erase_value(v);
        const auto before = ref.size();
        std::erase(ref, v);
        EXPECT_EQ(removed, before - ref.size());
        break;
      }
      case 9: {  // contains
        const std::uint32_t v = rng() % 37;
        const bool in_ref =
            std::find(ref.begin(), ref.end(), v) != ref.end();
        EXPECT_EQ(q.contains(v), in_ref);
        break;
      }
    }
    ASSERT_EQ(q.size(), ref.size());
    if (!ref.empty()) {
      const std::size_t i = rng() % ref.size();
      ASSERT_EQ(q[i], ref[i]);
    }
  }
  while (!ref.empty()) {
    EXPECT_EQ(q.take_front(), ref.front());
    ref.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state: after warmup, the pooled network hot path
// must not touch the heap at all. This is the only check of that claim
// (skipped under sanitizers, where the counting allocator is compiled out).

/// Closed-loop source: every delivery re-injects the same buffer.
class RecyclingHost final : public net::HostHooks {
 public:
  struct Flow {
    std::uint16_t src = 0;
    packet::Bytes route_prefix;
  };

  RecyclingHost(net::Network& network, std::vector<Flow>& flows)
      : network_(network), flows_(flows) {}

  void on_rx_head(sim::Time, net::TxHandle) override {}
  void on_rx_early_header(sim::Time, net::TxHandle,
                          const packet::Bytes&) override {}
  void on_tx_started(sim::Time, net::TxHandle) override {}
  void on_tx_complete(sim::Time, net::TxHandle) override {}
  void on_rx_complete(sim::Time, net::WirePacket pkt) override {
    Flow& flow = flows_[pkt.src_host];
    packet::Bytes buf = std::move(pkt.bytes);
    buf.insert(buf.begin(), flow.route_prefix.begin(),
               flow.route_prefix.end());
    network_.inject(flow.src, std::move(buf));
  }

 private:
  net::Network& network_;
  std::vector<Flow>& flows_;
};

TEST(ZeroAlloc, NetworkSteadyStateMakesNoHeapAllocations) {
  if (!sim::alloc_counting_available())
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build)";

  constexpr int kSwitches = 4;
  constexpr int kPerSwitch = 2;
  constexpr int kHosts = kSwitches * kPerSwitch;
  constexpr int kWindow = 4;

  topo::Topology topo;
  for (int s = 0; s < kSwitches; ++s) topo.add_switch(8);
  for (int h = 0; h < kHosts; ++h) topo.add_host();
  for (int s = 0; s + 1 < kSwitches; ++s)
    topo.connect_switches(static_cast<std::uint16_t>(s), 1,
                          static_cast<std::uint16_t>(s + 1), 0);
  for (int h = 0; h < kHosts; ++h)
    topo.attach_host(static_cast<std::uint16_t>(h),
                     static_cast<std::uint16_t>(h / kPerSwitch),
                     static_cast<std::uint8_t>(2 + h % kPerSwitch));

  sim::EventQueue queue;
  net::Network network(topo, net::NetTiming{}, queue);

  std::vector<RecyclingHost::Flow> flows(kHosts);
  std::vector<std::unique_ptr<RecyclingHost>> hosts;
  for (int h = 0; h < kHosts; ++h) {
    hosts.push_back(std::make_unique<RecyclingHost>(network, flows));
    network.attach_host(static_cast<std::uint16_t>(h), hosts.back().get());
  }

  const packet::Bytes payload(64, 0xAB);
  for (int h = 0; h < kHosts; ++h) {
    const int dst = kHosts - 1 - h;
    const int sa = h / kPerSwitch, sb = dst / kPerSwitch;
    packet::Route route;
    for (int s = sa; s != sb; s += (sb > sa ? 1 : -1))
      route.push_back(sb > sa ? 1 : 0);
    route.push_back(static_cast<std::uint8_t>(2 + dst % kPerSwitch));
    auto& flow = flows[h];
    flow.src = static_cast<std::uint16_t>(h);
    for (std::uint8_t port : route)
      flow.route_prefix.push_back(packet::encode_route_byte(port));
    for (int w = 0; w < kWindow; ++w)
      network.inject(flow.src,
                     packet::build_packet(route, packet::PacketType::kGm,
                                          payload));
  }

  // Warmup: pools grow to the working set, queues and scratch vectors
  // stretch to their steady capacity.
  queue.run_events(100'000);
  ASSERT_GT(network.stats().delivered, 0u);

  const std::uint64_t before = sim::total_allocations();
  queue.run_events(200'000);
  const std::uint64_t after = sim::total_allocations();
  EXPECT_EQ(after - before, 0u)
      << "steady-state hot path allocated " << (after - before) << " times";
}

TEST(ZeroAlloc, ClusterSteadyStateAllocatesOneWireBufferPerPacket) {
  // The full stack — GM, NIC MCP and PCI, the wormhole fabric and ITB
  // re-injections — on an 8 x 4 ITB COW with the full-stack benchmark's
  // data-plane settings. Once every ordered pair has exchanged a message,
  // a GM message may cost heap allocations only for the wire buffers the
  // NICs build (one per packet they inject, ITB copies included): no MCP
  // job, DMA callback, connection table, queue or per-layer copy.
  if (!sim::alloc_counting_available())
    GTEST_SKIP() << "allocation counting unavailable (sanitizer build)";

  core::ClusterConfig cfg;
  sim::Rng rng(6001);
  topo::IrregularSpec spec;
  spec.switches = 8;
  spec.hosts_per_switch = 4;
  cfg.topology = topo::make_random_irregular(spec, rng);
  cfg.engine = {routing::Policy::kItb, 1};
  cfg.mcp_options.recv_buffers = 64;
  cfg.mcp_options.drop_when_full = true;
  cfg.gm_config.send_tokens = 64;
  cfg.gm_config.window = 32;
  cfg.gm_config.retransmit_timeout = 5 * sim::kMs;
  cfg.route_solve_jobs = 1;
  core::Cluster c(std::move(cfg));
  const auto hosts = static_cast<std::uint16_t>(c.host_count());

  std::uint64_t delivered = 0;
  for (std::uint16_t h = 0; h < hosts; ++h)
    c.port(h).set_receive_handler(
        [&delivered](sim::Time, std::uint16_t, packet::Bytes) { ++delivered; });
  // Every host sends one 512 B message to every other. The caller builds
  // the messages, so the test's own buffers stay out of the measured window.
  const std::size_t pairs = std::size_t{hosts} * (hosts - 1u);
  auto all_pairs = [&](std::vector<packet::Bytes> msgs) {
    std::size_t i = 0;
    for (std::uint16_t src = 0; src < hosts; ++src)
      for (std::uint16_t dst = 0; dst < hosts; ++dst)
        if (dst != src) {
          ASSERT_TRUE(c.port(src).send(dst, std::move(msgs[i++])));
        }
  };

  // Warm-up: the first round sizes every connection table and grows the
  // pools and queues to their working set; the second lets the NICs'
  // warm-recycled send buffers, some first sized by a 23-byte ack, reach
  // data-packet capacity.
  for (int warm = 0; warm < 2; ++warm) {
    all_pairs(std::vector<packet::Bytes>(pairs, packet::Bytes(512, 0xC3)));
    c.run();
  }
  ASSERT_EQ(delivered, 2 * pairs);

  std::vector<packet::Bytes> msgs(pairs, packet::Bytes(512, 0xC3));
  const auto injected0 = c.network().stats().injected;
  sim::mark_steady_state();
  all_pairs(std::move(msgs));
  c.run();
  const std::uint64_t allocs = sim::allocations_since_mark();
  const std::uint64_t worms = c.network().stats().injected - injected0;
  ASSERT_EQ(delivered, 3 * pairs);
  ASSERT_GE(worms, 2 * pairs);  // a data packet and an ack per message
  EXPECT_LE(allocs, worms) << allocs << " allocations for " << worms
                           << " packets";
}

}  // namespace
