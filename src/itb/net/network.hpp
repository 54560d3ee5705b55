// Event-driven wormhole network.
//
// Packets propagate as "worms": the head walks the source route hop by hop,
// reserving the directed channel of every link it crosses; payload bytes
// stream pipelined behind it at link rate. A blocked head keeps its channels
// reserved — the wormhole property that makes contention cascade (§1) and
// that ITB ejection relieves. Myrinet's Stop&Go flow control appears as its
// observable consequence: an upstream transmitter pauses while its channel
// chain is stalled, and reception at an ejecting NIC continues regardless of
// whether the re-injection is blocked (§4).
//
// Channel arbitration is FIFO per directed channel. The channel into a host
// is additionally gated on the NIC having a free receive buffer: a NIC out
// of buffers exerts backpressure exactly like a busy channel.
//
// Completion timing: with every link at the same rate, the tail reaches the
// destination at
//     max(head_arrival + (len-1) * byte_time,  data_ready + pipe_latency)
// where pipe_latency accumulates the per-hop fixed costs the head paid and
// data_ready is when the *source* had the last byte available — the hook
// that models virtual cut-through re-injection of a packet that is still
// being received (§4).
//
// Fault injection is delegated to a FaultHook (fault::FaultInjector): the
// network consults it before every channel grant (a down link kills the worm
// at that hop), at the host gate (a stalled NIC parks traffic losslessly),
// and at each segment delivery (probabilistic drop/corrupt). With no hook
// installed the wire is faithful and none of the checks run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "itb/flight/recorder.hpp"
#include "itb/net/lanes.hpp"
#include "itb/net/timing.hpp"
#include "itb/net/wire_packet.hpp"
#include "itb/sim/event_queue.hpp"
#include "itb/sim/slab_pool.hpp"
#include "itb/telemetry/metrics.hpp"
#include "itb/topo/topology.hpp"

namespace itb::net {

/// Endpoint callbacks, implemented by the NIC model. All times are the
/// simulated instants of the wire events themselves; the NIC adds its own
/// processing costs on top.
class HostHooks {
 public:
  virtual ~HostHooks() = default;

  /// First byte of a packet reached the NIC.
  virtual void on_rx_head(sim::Time t, TxHandle h) = 0;

  /// The first four bytes are in NIC SRAM — the trigger of the paper's
  /// Early Recv Packet event. `head4` holds up to 4 leading bytes.
  virtual void on_rx_early_header(sim::Time t, TxHandle h,
                                  const packet::Bytes& head4) = 0;

  /// Last byte landed; the packet (route bytes already consumed) is handed
  /// over. The receive buffer the NIC granted is now in use.
  virtual void on_rx_complete(sim::Time t, WirePacket packet) = 0;

  /// The injection's first byte left the NIC (send DMA streaming).
  virtual void on_tx_started(sim::Time t, TxHandle h) = 0;

  /// The injection's last byte left the NIC (send DMA free again).
  virtual void on_tx_complete(sim::Time t, TxHandle h) = 0;

  /// The packet was discarded at or near injection (malformed route, or a
  /// fault killed it before the source finished streaming). The send DMA is
  /// free again.
  virtual void on_tx_dropped(sim::Time /*t*/, TxHandle /*h*/) {}

  /// A reception that began (on_rx_head fired) will never complete — the
  /// packet was lost by fault injection. The NIC must release whatever it
  /// reserved for this handle.
  virtual void on_rx_aborted(sim::Time /*t*/, TxHandle /*h*/) {}
};

/// Counters exposed for benches and tests. At quiescence
///   injected == delivered + dropped + lost.
struct NetworkStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;      // malformed route / unattached destination
  std::uint64_t head_blocks = 0;  // times a head had to queue for a channel
  std::uint64_t faults_injected = 0;  // fault events (kills + corruptions)
  std::uint64_t lost = 0;             // packets destroyed by faults
};

/// Fault-injection interface (implemented by fault::FaultInjector). The
/// network never decides fates itself; it only reports them in its stats.
class FaultHook {
 public:
  enum class Fate : std::uint8_t { kDeliver, kDrop, kCorrupt };

  virtual ~FaultHook() = default;

  /// May a head cross this channel right now? false kills the worm here —
  /// bytes entering a dead link are gone, wormhole offers no recovery.
  virtual bool channel_usable(topo::Channel c) const = 0;

  /// Is the NIC at `host` accepting receptions? false models a stalled NIC:
  /// traffic parks under Stop&Go backpressure, nothing is lost.
  virtual bool host_accepting(std::uint16_t host) const = 0;

  /// Fate of a packet whose tail just reached `host`. A kCorrupt verdict
  /// flips payload byte(s) in `bytes` in place before delivery.
  virtual Fate delivery_fate(std::uint16_t host, packet::Bytes& bytes) = 0;

  /// A worm was killed by a channel_usable() veto at `at` (cause
  /// accounting: link / switch / host windows each keep their own counter).
  virtual void note_kill(topo::Channel at) = 0;
};

class Network {
 public:
  Network(const topo::Topology& topo, const NetTiming& timing,
          sim::EventQueue& queue);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register the NIC serving `host`. Must be called once per host before
  /// any traffic involving it.
  void attach_host(std::uint16_t host, HostHooks* hooks);

  /// Queue a packet for injection at `host`. `data_ready` is when the last
  /// byte becomes available in the sending NIC (pass std::nullopt for a
  /// fully buffered packet: ready as soon as transmission reaches it).
  /// Transmission begins when the host's uplink channel is granted.
  /// `crc_intact`: the sender framed these bytes and their CRC itself
  /// (WirePacket::crc_intact); a raw frame leaves the receiver to check.
  TxHandle inject(std::uint16_t host, packet::Bytes bytes,
                  std::optional<sim::Time> data_ready = std::nullopt,
                  bool crc_intact = false);

  /// Install (or clear, with nullptr) the fault hook. The hook must outlive
  /// the network or be cleared before destruction.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

  /// Install (or clear, with nullptr) the lane ladder. Resizes the
  /// per-lane channel tables, so it must run before any traffic and with
  /// nothing in flight; the ladder must outlive the network or be cleared
  /// (re-binding its directions in place is fine). A one-lane ladder (or
  /// nullptr) leaves the network on the classical single-lane hot path —
  /// zero extra work per event.
  void set_ladder(const LaneLadder* ladder);
  unsigned lane_count() const { return lanes_; }

  /// Install (or clear) the flight recorder. Off by default; when set,
  /// every lifecycle station (inject, channel block/grant, per-hop head
  /// motion, NIC eject, tail, terminal fates) records one packed event.
  void set_flight_recorder(flight::FlightRecorder* recorder) {
    flight_ = recorder;
  }
  flight::FlightRecorder* flight_recorder() const { return flight_; }

  /// The fault hook reports a link's state changed. Down: every worm
  /// holding or waiting for either directed channel is killed. Up: both
  /// channels re-arbitrate.
  void on_link_state(topo::LinkId link, bool up);

  /// Re-run arbitration for the channel into `host` (used when a NIC-stall
  /// fault window closes; parked traffic resumes).
  void rearbitrate_host(std::uint16_t host);

  /// Receive-buffer gate: while false, the channel into `host` is not
  /// granted and upstream packets stall (Stop&Go backpressure).
  void set_host_rx_ready(std::uint16_t host, bool ready);

  const NetworkStats& stats() const { return stats_; }
  const NetTiming& timing() const { return timing_; }
  const topo::Topology& topology() const { return topo_; }

  /// Total time each directed channel spent reserved; index 2*link +
  /// (forward ? 0 : 1). Load-balance benches read this. With lanes the
  /// physical channel accumulates every lane's busy time.
  const std::vector<sim::Duration>& channel_busy_ns() const {
    return channel_busy_;
  }

  /// Per-lane busy time, index (2*link + dir) * lane_count() + lane. Empty
  /// on a single-lane network (channel_busy_ns() is already per lane then).
  const std::vector<sim::Duration>& lane_busy_ns() const { return lane_busy_; }

  /// Number of worms currently in flight (for drain loops in tests).
  std::size_t in_flight() const { return live_worms_; }

  /// One in-flight worm's wait state, as seen by the liveness diagnoser
  /// (health::WaitGraphDiagnoser): which channel lanes it holds and what it
  /// is parked on. `blocked` worms sit in a lane's waiter queue; the gate
  /// fields describe why a free channel into a host still was not granted.
  struct HeldLane {
    topo::Channel channel{};
    std::uint8_t lane = 0;
  };
  struct WormWait {
    TxHandle handle = 0;
    std::uint16_t src_host = 0;
    sim::Time injected_at = 0;
    std::vector<HeldLane> held;
    bool blocked = false;
    topo::Channel waiting_on{};       // valid iff blocked
    std::uint8_t waiting_lane = 0;    // valid iff blocked
    bool waiting_channel_busy = false;  // another worm owns waiting_on's lane
    bool gate_closed = false;  // waiting_on enters a host whose gate is shut
    bool gate_fault = false;   // ... shut by the fault hook (NIC stall)
    std::uint16_t gate_host = 0;  // valid iff gate_closed
  };
  std::vector<WormWait> wait_snapshot() const;

  /// Handle of the blocked worm with the earliest injection time (FIFO tie
  /// break by handle); nullopt when nothing is blocked.
  std::optional<TxHandle> oldest_blocked() const;

  /// Destroy an in-flight worm to break a wedge (watchdog escalation). The
  /// packet counts as `lost` but NOT as a fault: the loss belongs to the
  /// health ledger (health.forced_ejections), not the fault injector's.
  /// Returns false if the handle is unknown or already finished.
  bool force_eject(TxHandle h);

  /// Invoked on every inject(); lets a parked liveness watchdog re-arm
  /// without polling an idle network. Clear with nullptr.
  void set_activity_hook(std::function<void()> hook) {
    activity_hook_ = std::move(hook);
  }

  /// Metric tables under component "net", read in place (stats() stays the
  /// source of truth): the NetworkStats counters and worm-pool gauges; and
  /// channel_busy_ns per directed channel or, with `lanes`, lane_busy_ns
  /// per lane slot (none on a single-lane network), labelled channel = the
  /// index into channel_busy_ns() or lane_busy_ns().
  std::unique_ptr<telemetry::MetricTable> metric_table() const;
  std::unique_ptr<telemetry::MetricTable> busy_table(bool lanes) const;

  /// Snapshot of an in-flight reception, valid between on_rx_head and
  /// on_rx_complete at the destination NIC. The NIC uses it to set up a
  /// virtual cut-through re-injection while the packet is still arriving:
  /// the real LANai streams bytes from its receive buffer as they land;
  /// the simulator equivalently hands over the content plus the instant
  /// the last byte will be in SRAM (`tail_time`).
  struct RxPeek {
    const packet::Bytes* bytes;
    sim::Time tail_time;
    bool crc_intact;  // as injected: a fate is decided only at the tail
  };
  std::optional<RxPeek> peek_rx(TxHandle h) const;

 private:
  /// One in-flight transmission. Worms live in a SlabPool: acquired on
  /// inject, released on any terminal fate, recycled WARM so the bytes and
  /// held vectors keep their capacities — the steady state allocates
  /// nothing. Slab storage never moves, so the raw Worm* kept by channel
  /// owners and event closures stays valid for the worm's whole life.
  struct Worm {
    TxHandle handle = 0;
    packet::Bytes bytes;
    std::uint32_t route_off = 0;  // route bytes consumed so far (the bytes
                                  // themselves are erased once, at the
                                  // destination NIC, not per hop)
    std::uint16_t src_host = 0;
    std::uint16_t dst_host = 0;  // set once the head reaches the final NIC
    sim::Time injected_at = 0;
    std::optional<sim::Time> data_ready_opt;
    sim::Time data_ready = 0;   // resolved at injection grant
    sim::Duration pipe_ns = 0;  // fixed per-hop latency the head has paid
    std::size_t orig_len = 0;
    /// Channel-lane slots held (index into channels_), route order. Plain
    /// ints rather than Channel+lane pairs: the slot IS the arbitration
    /// identity, and phys/lane decompose from it when needed.
    std::vector<std::uint32_t> held;
    std::optional<topo::Channel> waiting_on;  // parked in this lane's queue
    std::uint8_t waiting_lane = 0;            // valid iff waiting_on
    LaneState lane_state;  // advanced by the ladder per traversal
    sim::Time tail_time = -1;  // set once the head reaches the final NIC
    bool crc_intact = false;   // WirePacket::crc_intact, until a fault
    bool rx_started = false;   // on_rx_head fired at the destination
    bool tx_signaled = false;  // on_tx_complete / on_tx_dropped fired
    bool done = false;
    // Pending events, cancelled if a fault kills the worm mid-flight.
    sim::EventId pending;         // next head hop / tail arrival
    sim::EventId early_event;     // early-header callback
    sim::EventId src_done_event;  // source on_tx_complete
    // Intrusive links: the network-wide live list (insertion order) and the
    // FIFO waiter queue of the channel named by waiting_on.
    Worm* live_prev = nullptr;
    Worm* live_next = nullptr;
    Worm* wait_prev = nullptr;
    Worm* wait_next = nullptr;
    sim::PoolHandle self;  // this worm's own pool slot
  };

  /// Per directed channel LANE (one entry per lane of each channel; a
  /// single-lane network degenerates to the classical per-channel table).
  /// Waiters are an intrusive doubly-linked FIFO threaded through the worms
  /// themselves (a worm waits on at most one lane), replacing the
  /// per-channel std::deque.
  struct ChannelState {
    bool busy = false;
    sim::Time busy_since = 0;
    Worm* owner = nullptr;  // holder while busy (kill target on link-down)
    Worm* wait_head = nullptr;
    Worm* wait_tail = nullptr;
  };

  const topo::Topology& topo_;
  NetTiming timing_;
  sim::EventQueue& queue_;
  NetworkStats stats_;
  FaultHook* fault_hook_ = nullptr;
  flight::FlightRecorder* flight_ = nullptr;
  const LaneLadder* ladder_ = nullptr;  // non-null iff lanes_ > 1
  unsigned lanes_ = 1;
  std::function<void()> activity_hook_;

  std::vector<HostHooks*> hooks_;       // by host index
  std::vector<std::uint8_t> rx_ready_;  // by host index (byte, not
                                        // vector<bool>: the host gate reads
                                        // this on every channel request)
  std::vector<ChannelState> channels_;  // by channel-lane slot
  std::vector<sim::Duration> channel_busy_;  // per PHYSICAL channel
  std::vector<sim::Duration> lane_busy_;     // per slot; empty when lanes_==1
  sim::SlabPool<Worm> worm_pool_;
  Worm* live_head_ = nullptr;  // in-flight worms, injection order
  Worm* live_tail_ = nullptr;
  std::size_t live_worms_ = 0;
  TxHandle next_handle_ = 1;
  packet::Bytes early_scratch_;  // reused 4-byte Early-Recv snapshot

  // Dense topology caches, built once in the constructor (the Topology is
  // immutable for the Network's life). Indexed by channel index, they turn
  // the per-hop O(links) Topology::link_at scan into one array read.
  std::uint32_t max_ports_ = 1;
  std::vector<std::int32_t> out_channel_;  // [node_slot * max_ports_ + port]
                                           // -> channel index, -1 dangling
  std::vector<topo::Endpoint> channel_target_;  // per channel index
  std::vector<std::uint8_t> channel_is_lan_;    // per channel index
  std::vector<std::int32_t> channel_gate_host_;  // host the channel enters,
                                                 // -1 if it enters a switch
  std::vector<std::int32_t> host_out_channel_;  // host uplink, -1 unattached
  std::vector<std::int32_t> host_in_channel_;   // into host, -1 unattached

  static std::uint32_t channel_index(topo::Channel c) {
    return 2 * c.link + (c.forward ? 0 : 1);
  }
  static topo::Channel channel_from_index(std::uint32_t idx) {
    return topo::Channel{idx >> 1, (idx & 1u) == 0};
  }
  // Channel-lane slots: channels_[phys * lanes_ + lane]. With lanes_ == 1
  // slot == physical channel index, so every single-lane run takes the
  // exact pre-lane arithmetic (slot/1, slot%1 fold away).
  std::uint32_t slot_of(topo::Channel c, std::uint8_t lane) const {
    return channel_index(c) * lanes_ + lane;
  }
  std::uint32_t phys_of(std::uint32_t slot) const { return slot / lanes_; }
  std::uint8_t lane_of(std::uint32_t slot) const {
    return static_cast<std::uint8_t>(slot % lanes_);
  }
  topo::Channel channel_of(std::uint32_t slot) const {
    return channel_from_index(phys_of(slot));
  }
  std::size_t node_slot(topo::NodeId n) const {
    return (n.kind == topo::NodeKind::kHost ? topo_.switch_count() : 0) +
           n.index;
  }
  /// Channel leaving `from` through `port`; -1 if dangling.
  std::int32_t out_channel_idx(topo::NodeId from, std::uint8_t port) const {
    if (port >= max_ports_) return -1;
    return out_channel_[node_slot(from) * max_ports_ + port];
  }

  // Intrusive-list plumbing.
  void live_insert(Worm* w);
  void live_remove(Worm* w);
  static void waiter_push(ChannelState& st, Worm* w);
  static Worm* waiter_pop(ChannelState& st);
  static void waiter_unlink(ChannelState& st, Worm* w);

  /// The host gate (rx-buffer backpressure or a NIC-stall fault window),
  /// keyed by channel index — one table read on the request path.
  bool gate_closed_idx(std::uint32_t channel_idx) const {
    const std::int32_t h = channel_gate_host_[channel_idx];
    if (h < 0) return false;
    if (!rx_ready_[static_cast<std::size_t>(h)]) return true;
    return fault_hook_ &&
           !fault_hook_->host_accepting(static_cast<std::uint16_t>(h));
  }

  void request_channel(Worm* w, std::uint32_t slot);
  void grant_channel(Worm* w, std::uint32_t slot);
  void release_channels(Worm* w);
  /// Grant the slot to its front waiter if it is free, usable and ungated;
  /// if the fault hook vetoes the channel, every parked waiter is killed.
  void arbitrate(std::uint32_t slot);
  void head_at_node(Worm* w, topo::Endpoint arrival);
  void complete_at_host(Worm* w, std::uint16_t host, sim::Time head_arrival);
  void drop(Worm* w);
  /// Destroy an in-flight worm at `at`: cancels its scheduled events,
  /// releases its channels and fires the abort-side hooks. `fault` charges
  /// the kill to the fault ledger (faults_injected + note_kill); a forced
  /// ejection passes false and only counts as lost.
  void kill_worm(Worm* w, topo::Channel at, bool fault = true);
  void finish_worm(Worm* w);
};

}  // namespace itb::net
