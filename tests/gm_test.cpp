// Tests for the GM layer: header codec, fragmentation/reassembly, tokens,
// and reliable ordered delivery (acks, go-back-N retransmission, duplicate
// suppression) including recovery from buffer-pool drops.
#include <gtest/gtest.h>

#include <numeric>

#include "itb/core/cluster.hpp"
#include "itb/gm/header.hpp"
#include "itb/topo/builders.hpp"

namespace {

using namespace itb;
using packet::Bytes;

// ----------------------------------------------------------------- codec --

TEST(GmHeader, RoundTrip) {
  gm::GmHeader h;
  h.subtype = gm::Subtype::kData;
  h.src_host = 3;
  h.dst_host = 9;
  h.seq = 0xDEADBEEF;
  h.msg_id = 42;
  h.frag_offset = 8192;
  h.msg_len = 100000;
  Bytes data(17, 0x3C);
  auto payload = gm::encode(h, data);
  auto d = gm::decode(payload);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->header.subtype, gm::Subtype::kData);
  EXPECT_EQ(d->header.src_host, 3);
  EXPECT_EQ(d->header.dst_host, 9);
  EXPECT_EQ(d->header.seq, 0xDEADBEEFu);
  EXPECT_EQ(d->header.msg_id, 42u);
  EXPECT_EQ(d->header.frag_offset, 8192u);
  EXPECT_EQ(d->header.msg_len, 100000u);
  EXPECT_EQ(d->header.frag_len, 17u);
  EXPECT_EQ(Bytes(d->data.begin(), d->data.end()), data);
}

TEST(GmHeader, AckRoundTrip) {
  gm::GmHeader h;
  h.subtype = gm::Subtype::kAck;
  h.seq = 77;
  auto payload = gm::encode(h, {});
  auto d = gm::decode(payload);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->header.subtype, gm::Subtype::kAck);
  EXPECT_EQ(d->header.seq, 77u);
  EXPECT_TRUE(d->data.empty());
}

TEST(GmHeader, RejectsMalformed) {
  EXPECT_FALSE(gm::decode(Bytes{}).has_value());
  EXPECT_FALSE(gm::decode(Bytes(10, 0)).has_value());       // too short
  Bytes bad(gm::GmHeader::kSize, 0);
  bad[0] = 99;                                               // bad subtype
  EXPECT_FALSE(gm::decode(bad).has_value());
  gm::GmHeader h;
  auto p = gm::encode(h, Bytes(4, 0));
  p.pop_back();                                              // frag_len lies
  EXPECT_FALSE(gm::decode(p).has_value());
  gm::GmHeader past_end;
  past_end.frag_offset = 60;
  past_end.msg_len = 64;
  EXPECT_FALSE(gm::decode(gm::encode(past_end, Bytes(8, 0))).has_value());
}

// ----------------------------------------------------------------- ports --

std::unique_ptr<core::Cluster> make_cluster(
    routing::Policy policy = routing::Policy::kUpDown,
    nic::McpOptions mcp = {}, gm::GmConfig gmc = {}) {
  core::ClusterConfig cfg;
  cfg.topology = topo::make_linear(2, 1);  // h0 on s0, h1 on s1
  cfg.engine = {policy, 1};
  cfg.mcp_options = mcp;
  cfg.gm_config = gmc;
  return std::make_unique<core::Cluster>(std::move(cfg));
}

TEST(GmPort, SingleMessageDelivery) {
  auto c = make_cluster();
  Bytes msg(100);
  std::iota(msg.begin(), msg.end(), std::uint8_t{0});
  Bytes got;
  std::uint16_t got_src = 99;
  c->port(1).set_receive_handler(
      [&](sim::Time, std::uint16_t src, Bytes m) {
        got = std::move(m);
        got_src = src;
      });
  ASSERT_TRUE(c->port(0).send(1, msg));
  c->run();
  EXPECT_EQ(got, msg);
  EXPECT_EQ(got_src, 0);
  EXPECT_EQ(c->port(1).stats().messages_delivered, 1u);
}

TEST(GmPort, SendCallbackFiresAfterAck) {
  auto c = make_cluster();
  sim::Time sent_at = -1, delivered_at = -1;
  c->port(1).set_receive_handler(
      [&](sim::Time t, std::uint16_t, Bytes) { delivered_at = t; });
  c->port(0).send(1, Bytes(64, 1), [&](sim::Time t) { sent_at = t; });
  c->run();
  ASSERT_GE(sent_at, 0);
  // The token returns only after the ack made the return trip.
  EXPECT_GT(sent_at, delivered_at - 1);
  EXPECT_EQ(c->port(0).tokens_available(), gm::GmConfig{}.send_tokens);
}

TEST(GmPort, LargeMessageFragmentsAndReassembles) {
  auto c = make_cluster();
  const std::size_t size = 3 * (nic::Nic::kMtu - gm::GmHeader::kSize) + 123;
  Bytes msg(size);
  for (std::size_t i = 0; i < size; ++i)
    msg[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  Bytes got;
  c->port(1).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes m) { got = std::move(m); });
  ASSERT_TRUE(c->port(0).send(1, msg));
  c->run();
  EXPECT_EQ(got, msg);
  // 4 data packets were needed.
  EXPECT_EQ(c->port(0).stats().packets_data, 4u);
}

TEST(GmPort, TokensExhaustAndReturn) {
  gm::GmConfig gmc;
  gmc.send_tokens = 2;
  auto c = make_cluster(routing::Policy::kUpDown, {}, gmc);
  EXPECT_TRUE(c->port(0).send(1, Bytes(10, 0)));
  EXPECT_TRUE(c->port(0).send(1, Bytes(10, 0)));
  EXPECT_FALSE(c->port(0).send(1, Bytes(10, 0)));  // no token left
  c->run();
  EXPECT_EQ(c->port(0).tokens_available(), 2);
  EXPECT_TRUE(c->port(0).send(1, Bytes(10, 0)));
}

TEST(GmPort, ManyMessagesArriveInOrder) {
  auto c = make_cluster();
  std::vector<int> order;
  c->port(1).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes m) { order.push_back(m[0]); });
  // More messages than tokens: pace them with the queue.
  int next = 0;
  std::function<void()> feed = [&] {
    while (next < 40 &&
           c->port(0).send(1, Bytes{static_cast<std::uint8_t>(next)}))
      ++next;
    if (next < 40) c->queue().schedule_in(50 * sim::kUs, feed);
  };
  feed();
  c->run();
  ASSERT_EQ(order.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(GmPort, EmptyMessageThrows) {
  auto c = make_cluster();
  EXPECT_THROW(c->port(0).send(1, Bytes{}), std::invalid_argument);
}

TEST(GmPort, SendToOwnOrUnknownHostThrows) {
  // GM's connection tables are indexed by peer host: a peer id that names
  // this host or no host at all is a caller error, not a connection that
  // holds a token and retransmits into "no route" until max_retries.
  auto c = make_cluster();  // hosts 0 and 1
  auto& port = c->port(0);
  EXPECT_THROW(port.send(0, Bytes(8, 1)), std::invalid_argument);
  EXPECT_THROW(port.send(2, Bytes(8, 1)), std::invalid_argument);
  EXPECT_THROW(port.send(0xFFFF, Bytes(8, 1)), std::invalid_argument);
  EXPECT_EQ(port.tokens_in_use(), 0);
  EXPECT_FALSE(port.peer_failed(2));
  c->run();
  EXPECT_EQ(port.stats().messages_sent, 0u);
  EXPECT_EQ(port.stats().packets_data, 0u);
  EXPECT_EQ(port.stats().packets_unroutable, 0u);
  EXPECT_EQ(c->nic(0).stats().sent, 0u);
}

TEST(GmPort, DropsPacketsFromUnknownSourceHosts) {
  // Received headers are bounded too: data or an ack claiming a source no
  // host of the network has is dropped — no ack, no delivery, and no index
  // into the (already sized) connection tables.
  auto c = make_cluster();
  int handled = 0;
  c->port(0).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++handled; });
  c->port(1).set_receive_handler([](sim::Time, std::uint16_t, Bytes) {});
  ASSERT_TRUE(c->port(0).send(1, Bytes(32, 1)));  // sizes port 0's tables
  c->run();
  const auto before = c->port(0).stats();

  gm::GmHeader h;
  h.src_host = 2;  // a 2-host network
  h.dst_host = 0;
  h.seq = gm::GmConfig{}.initial_seq;
  h.msg_len = 64;
  c->nic(1).post_send(0, gm::encode(h, Bytes(64, 0x5A)));
  gm::GmHeader ack;
  ack.subtype = gm::Subtype::kAck;
  ack.src_host = 0xFFFF;
  ack.dst_host = 0;
  ack.seq = 1000;
  c->nic(1).post_send(0, gm::encode(ack, {}));
  c->run();

  EXPECT_EQ(c->nic(0).stats().delivered_to_host, 3u);  // 1 ack + 2 forged
  EXPECT_EQ(handled, 0);
  const auto& after = c->port(0).stats();
  EXPECT_EQ(after.messages_delivered, before.messages_delivered);
  EXPECT_EQ(after.packets_ack, before.packets_ack);
  EXPECT_EQ(after.packets_unroutable, before.packets_unroutable);
  EXPECT_EQ(after.duplicates, 0u);
  EXPECT_EQ(after.out_of_order, 0u);
  EXPECT_EQ(c->port(0).tokens_in_use(), 0);

  // The port is unharmed: a genuine exchange still works both ways.
  ASSERT_TRUE(c->port(1).send(0, Bytes(16, 2)));
  c->run();
  EXPECT_EQ(handled, 1);
}

TEST(GmPort, ReassemblyStaysInsideItsBuffer) {
  // A forged follow-up fragment claiming a longer message than the one
  // being reassembled must not write past the buffer sized for it.
  auto c = make_cluster();
  int handled = 0;
  c->port(0).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++handled; });
  gm::GmHeader h;
  h.src_host = 1;
  h.dst_host = 0;
  h.msg_id = 5;
  h.seq = gm::GmConfig{}.initial_seq;
  h.msg_len = 200;
  c->nic(1).post_send(0, gm::encode(h, Bytes(100, 1)));  // [0, 100) of 200
  h.seq += 1;
  h.frag_offset = 150;
  h.msg_len = 300;
  c->nic(1).post_send(0, gm::encode(h, Bytes(100, 2)));  // [150, 250) of 300
  c->run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(c->port(0).stats().messages_delivered, 0u);
  EXPECT_EQ(c->port(0).stats().packets_ack, 2u);
}

TEST(GmPort, BidirectionalConversation) {
  auto c = make_cluster();
  int a_got = 0, b_got = 0;
  c->port(0).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++a_got; });
  c->port(1).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++b_got; });
  for (int i = 0; i < 5; ++i) {
    c->port(0).send(1, Bytes(200, 1));
    c->port(1).send(0, Bytes(200, 2));
  }
  c->run();
  EXPECT_EQ(a_got, 5);
  EXPECT_EQ(b_got, 5);
}

// ------------------------------------------------------------ reliability --

TEST(GmPort, RecoversFromBufferPoolDrops) {
  // drop_when_full NICs lose packets under bursts; GM retransmission must
  // still deliver everything, in order.
  nic::McpOptions mcp;
  mcp.drop_when_full = true;
  mcp.recv_buffers = 1;
  gm::GmConfig gmc;
  gmc.retransmit_timeout = 300 * sim::kUs;
  auto c = make_cluster(routing::Policy::kUpDown, mcp, gmc);
  std::vector<int> order;
  c->port(1).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes m) { order.push_back(m[0]); });
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(c->port(0).send(1, Bytes(4000, static_cast<std::uint8_t>(i))));
  c->run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  // The run must actually have exercised loss recovery.
  EXPECT_GT(c->nic(1).stats().dropped_no_buffer, 0u);
  EXPECT_GT(c->port(0).stats().retransmissions, 0u);
}

TEST(GmPort, DuplicatesAreSuppressed) {
  // Force a duplicate by shrinking the timeout below the round-trip time.
  gm::GmConfig gmc;
  gmc.retransmit_timeout = 20 * sim::kUs;  // RTT is ~30 us here
  auto c = make_cluster(routing::Policy::kUpDown, {}, gmc);
  int got = 0;
  c->port(1).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++got; });
  c->port(0).send(1, Bytes(3000, 7));
  c->run();
  EXPECT_EQ(got, 1);  // delivered exactly once
  EXPECT_GT(c->port(0).stats().retransmissions, 0u);
  EXPECT_GT(c->port(1).stats().duplicates, 0u);
}

TEST(GmPort, AckAfterBarrenTimeoutsRestoresBaseTimeout) {
  // Each barren timeout doubles the retransmission timer; an ack that
  // advances the window restores the base timeout for the next loss. A NIC
  // stall at the receiver parks traffic without losing it: the first stall
  // costs two barren timeouts (at 100 and 300 us), the second message's
  // timer then fires after the base 100 us again (1.1 ms), not after the
  // 400 us the doubled timer would wait (1.4 ms).
  core::ClusterConfig cfg;
  cfg.topology = topo::make_linear(2, 1);
  cfg.engine = {routing::Policy::kUpDown, 1};
  cfg.gm_config.retransmit_timeout = 100 * sim::kUs;
  cfg.fault_schedule.nic_stall(1, 1 * sim::kUs, 350 * sim::kUs);
  cfg.fault_schedule.nic_stall(1, 1000 * sim::kUs, 2000 * sim::kUs);
  core::Cluster c(std::move(cfg));
  int got = 0;
  c.port(1).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes) { ++got; });
  const auto& st = c.port(0).stats();
  std::uint64_t in_first_stall = 0, after_base_timeout = 0;
  ASSERT_TRUE(c.port(0).send(1, Bytes(64, 1)));
  c.queue().schedule_in(340 * sim::kUs,
                        [&] { in_first_stall = st.retransmissions; });
  c.queue().schedule_in(1000 * sim::kUs,
                        [&] { ASSERT_TRUE(c.port(0).send(1, Bytes(64, 2))); });
  c.queue().schedule_in(1250 * sim::kUs,
                        [&] { after_base_timeout = st.retransmissions; });
  c.run();
  EXPECT_EQ(in_first_stall, 2u) << "two barren timeouts";
  EXPECT_EQ(after_base_timeout, 3u) << "the base timeout fired at 1.1 ms";
  EXPECT_EQ(got, 2);
}

TEST(GmPort, StatsCountAcks) {
  auto c = make_cluster();
  c->port(1).set_receive_handler([](sim::Time, std::uint16_t, Bytes) {});
  c->port(0).send(1, Bytes(10, 0));
  c->run();
  EXPECT_EQ(c->port(1).stats().packets_ack, 1u);
  EXPECT_EQ(c->port(0).stats().packets_data, 1u);
}

TEST(GmPort, WorksOverItbRoutes) {
  // End-to-end GM over a route with an in-transit buffer (Fig. 1 network,
  // pair whose minimal path needs one ITB).
  core::ClusterConfig cfg;
  cfg.topology = topo::make_fig1_network();
  cfg.engine = {routing::Policy::kItb, 1};
  core::Cluster c(std::move(cfg));
  ASSERT_TRUE(c.route_table());
  ASSERT_EQ(c.route_table()->route(4, 1).itb_count(), 1u);
  Bytes got;
  c.port(1).set_receive_handler(
      [&](sim::Time, std::uint16_t, Bytes m) { got = std::move(m); });
  Bytes msg(5000, 0x42);
  ASSERT_TRUE(c.port(4).send(1, msg));
  c.run();
  EXPECT_EQ(got, msg);
  EXPECT_GT(c.nic(6).stats().itb_forwarded, 0u);  // host 6 is the ITB host
}

}  // namespace
