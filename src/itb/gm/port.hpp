// GM port: the user-level message interface (§3).
//
// A GmPort layers GM's advertised guarantees over one NIC:
//   * token-flow-controlled sends (a bounded number of outstanding
//     messages per port),
//   * fragmentation of messages into MTU-sized packets and reassembly,
//   * reliable, ordered delivery per connection via go-back-N: cumulative
//     acknowledgements, a retransmission timer, duplicate suppression.
//
// Sequence numbers are compared with serial-number (wrap-safe) arithmetic,
// so long soaks survive the 2^32 wraparound. Retransmission is bounded:
// after `max_retries` barren timeouts the connection is declared dead, its
// pending messages fail, their tokens return, and the send-failure handler
// fires — a permanently dead peer degrades gracefully instead of
// retransmitting forever.
//
// Host-side software costs (the gm_send()/callback path on the Pentium III)
// are charged as fixed delays from GmConfig.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "itb/gm/header.hpp"
#include "itb/nic/nic.hpp"
#include "itb/sim/slab_pool.hpp"
#include "itb/telemetry/metrics.hpp"

namespace itb::gm {

struct GmConfig {
  /// User bytes per packet: NIC MTU minus the GM header.
  std::size_t mtu_payload = nic::Nic::kMtu - GmHeader::kSize;
  /// Maximum messages a port may have outstanding (send tokens).
  int send_tokens = 16;
  /// Go-back-N window per connection, in packets.
  int window = 8;
  sim::Duration retransmit_timeout = 2 * sim::kMs;
  /// Barren retransmission rounds tolerated before a connection is declared
  /// dead (<= 0: retry forever, the pre-fix behaviour).
  int max_retries = 16;
  /// First sequence number of every connection (sender and receiver agree
  /// by configuration, as both ends share one GmConfig). Exposed so tests
  /// can start just below the 2^32 wraparound.
  std::uint32_t initial_seq = 1;
  /// gm_send() host-side cost before the NIC sees the descriptor.
  sim::Duration host_send_overhead_ns = 900;
  /// Receive-callback dispatch cost on the host.
  sim::Duration host_recv_overhead_ns = 600;
};

struct GmStats {
  std::uint64_t messages_sent = 0;       // user messages accepted
  std::uint64_t messages_delivered = 0;  // handed to the receive handler
  std::uint64_t packets_data = 0;        // data packets posted (incl. rexmit)
  std::uint64_t packets_ack = 0;         // acks posted
  std::uint64_t retransmissions = 0;     // data packets re-posted on timeout
  std::uint64_t duplicates = 0;          // duplicate data packets discarded
  std::uint64_t out_of_order = 0;        // gap packets discarded (go-back-N)
  std::uint64_t send_failures = 0;       // connections declared dead
  std::uint64_t messages_failed = 0;     // messages failed by a dead peer
  std::uint64_t packets_unroutable = 0;  // posts skipped: no route (remap gap)
};

class GmPort final : public nic::NicClient {
 public:
  using RecvHandler =
      std::function<void(sim::Time, std::uint16_t src, packet::Bytes message)>;
  using SendCallback = std::function<void(sim::Time)>;
  /// (now, dst, failed_messages): the connection to `dst` was declared dead
  /// after max_retries; its pending messages will never be delivered.
  using SendFailureHandler =
      std::function<void(sim::Time, std::uint16_t dst, std::uint32_t failed)>;

  GmPort(sim::EventQueue& queue, nic::Nic& nic, const GmConfig& config = {});

  void set_receive_handler(RecvHandler handler) { handler_ = std::move(handler); }
  void set_send_failure_handler(SendFailureHandler handler) {
    failure_handler_ = std::move(handler);
  }

  /// Send `message` to `dst`. Returns false when no send token is
  /// available or the connection to `dst` has been declared dead.
  /// `on_sent` fires when every fragment has been acknowledged (the token
  /// returns to the caller); it never fires for a failed message. Throws
  /// std::invalid_argument for an empty message and for a `dst` that is
  /// this port's own host or no host of the network.
  bool send(std::uint16_t dst, packet::Bytes message, SendCallback on_sent = {});

  /// Did the connection to `dst` fail (max_retries exceeded)?
  bool peer_failed(std::uint16_t dst) const;

  /// Forget all connection state toward `dst` (both directions), reviving a
  /// dead connection. Sequence numbers restart at initial_seq, so the peer
  /// must reset symmetrically — the moral equivalent of GM re-opening a
  /// port pair after the mapper re-admits a host.
  void reset_connection(std::uint16_t dst);

  int tokens_available() const { return config_.send_tokens - tokens_in_use_; }
  int tokens_in_use() const { return tokens_in_use_; }
  const GmStats& stats() const { return stats_; }
  std::uint16_t host() const { return nic_.host(); }

  /// Metric table "gm" over `ports`, labelled by host and read in place:
  /// the GmStats counters and token occupancy.
  static std::unique_ptr<telemetry::MetricTable> metric_table(
      std::span<const std::unique_ptr<GmPort>> ports);

  // --- nic::NicClient ----------------------------------------------------
  void on_message(sim::Time t, packet::PacketType type,
                  packet::Bytes payload) override;
  void on_send_complete(sim::Time t, std::uint64_t token) override;

 private:
  /// One data packet of a message, waiting for window space or for its
  /// acknowledgement. Fragments live in the per-port pool `frags_` and are
  /// threaded through `next` into their connection's queues, so a first
  /// message to a new peer takes pooled slots instead of queue storage.
  struct Fragment {
    GmHeader header;
    packet::Bytes data;  // released as soon as the fragment is acknowledged
    /// A message's last fragment carries its completion: acknowledging it
    /// returns the message's token and fires `on_sent`.
    bool ends_message = false;
    SendCallback on_sent;
    Fragment* next = nullptr;
    sim::PoolHandle self;  // this fragment's own pool slot
  };
  /// FIFO of pooled fragments, linked through Fragment::next.
  struct FragmentQueue {
    Fragment* head = nullptr;
    Fragment* tail = nullptr;
    std::size_t size = 0;

    bool empty() const { return head == nullptr; }
    void push_back(Fragment* f);
    Fragment* pop_front();
  };
  /// Per-destination sender state (one GM "connection" each way).
  struct TxConn {
    std::uint32_t next_seq = 1;     // next sequence number to assign
    std::uint32_t highest_acked = 0;
    FragmentQueue unsent;           // waiting for window space
    FragmentQueue unacked;          // posted, not yet acknowledged
    std::uint32_t messages = 0;     // sent, not yet fully acknowledged
    sim::EventId timer{};
    bool timer_armed = false;
    /// Exponential backoff exponent: doubles the timeout after every
    /// barren timer expiry so congested acks don't trigger go-back-N
    /// storms; reset whenever an acknowledgement makes progress.
    int backoff = 0;
    /// Declared dead after max_retries barren timeouts; sends fail fast.
    bool dead = false;
  };
  /// Per-source receiver state.
  struct RxConn {
    std::uint32_t expected_seq = 1;
    /// Reassembly of the in-progress multi-fragment message (ordered
    /// delivery means at most one message is ever partially received per
    /// connection). Single-fragment messages never touch it.
    std::uint32_t msg_id = 0;
    packet::Bytes buffer;
    std::size_t received_bytes = 0;
  };

  /// Connection tables, indexed by peer host and sized (one entry per
  /// host) on first use: a cluster that never sends GM traffic keeps none.
  /// Callers have bounded the peer id already.
  TxConn& tx_conn(std::uint16_t dst);
  RxConn& rx_conn(std::uint16_t src);
  TxConn fresh_tx() const;
  RxConn fresh_rx() const;
  Fragment* new_fragment();
  /// Destroy the fragment's payload and callback and return its slot.
  void release_fragment(Fragment* f);
  void release_all(FragmentQueue& q);
  void pump(std::uint16_t dst);
  void post_fragment(const Fragment& f);
  void send_ack(std::uint16_t dst, std::uint32_t cum_seq);
  void arm_timer(std::uint16_t dst);
  void on_timeout(std::uint16_t dst);
  void fail_connection(std::uint16_t dst);
  /// `payload` is the whole GM packet payload, header included; a
  /// single-fragment message is delivered in it, header stripped in place.
  void handle_data(sim::Time t, const GmHeader& h, packet::Bytes payload);
  void handle_ack(const GmHeader& h);

  sim::EventQueue& queue_;
  nic::Nic& nic_;
  GmConfig config_;
  GmStats stats_;
  RecvHandler handler_;
  SendFailureHandler failure_handler_;
  int tokens_in_use_ = 0;
  std::uint32_t next_msg_id_ = 1;
  std::vector<TxConn> tx_;  // by destination host
  std::vector<RxConn> rx_;  // by source host
  sim::SlabPool<Fragment, 64> frags_;
};

}  // namespace itb::gm
