// The Myrinet NIC: LANai + SRAM buffers + MCP state machines.
//
// The MCP (paper §3) is four state machines coordinated by a prioritised
// event handler:
//   SDMA — host memory -> NIC send buffer (over the host DMA / PCI bus)
//   Send — stamp the source route from the NIC route table, start send DMA
//   Recv — classify arrived packets, program the receive-side host DMA
//   RDMA — NIC receive buffer -> host memory, completion to the host
//
// The ITB modification (paper §4, Figs. 4-5) adds:
//   * an Early Recv Packet event raised when the first 4 bytes of a packet
//     are in SRAM, whose handler probes the type field;
//   * Recv-side re-injection: when the Early Recv handler finds an ITB
//     packet and the send DMA is free, it programs the re-injection DMA
//     itself, skipping one event-handler dispatching cycle;
//   * an "ITB packet pending" flag serviced at send completion when the
//     send DMA was busy at detection time;
//   * virtual cut-through: the re-injection can start while the packet is
//     still arriving; reception always runs to the last byte even if the
//     re-injection blocks (Stop&Go stalls only the send side).
//
// Buffering matches the paper: two receive buffers and two send buffers by
// default; `recv_buffers` can be raised and `drop_when_full` enables the
// proposed circular-pool behaviour (accept and drop when full, relying on
// GM retransmission) instead of link-level backpressure.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "itb/host/pci.hpp"
#include "itb/net/network.hpp"
#include "itb/nic/lanai.hpp"
#include "itb/packet/format.hpp"
#include "itb/routing/table.hpp"
#include "itb/sim/flat_fifo.hpp"
#include "itb/sim/slab_pool.hpp"
#include "itb/telemetry/metrics.hpp"

namespace itb::nic {

struct McpOptions {
  /// False = the original GM MCP: no ITB code at all. An arriving ITB
  /// packet counts as an unknown type and is discarded.
  bool itb_support = true;

  /// Ablations of the two §4 design choices (both true = the paper's MCP).
  bool early_recv = true;             // detect at 4 bytes vs at completion
  bool recv_side_reinjection = true;  // skip one dispatch cycle

  int recv_buffers = 2;
  int send_buffers = 2;

  /// §4 extension: behave like a circular buffer pool — never exert
  /// backpressure; drop arrivals that find no free buffer (GM retransmits).
  bool drop_when_full = false;

  static McpOptions original_gm() {
    McpOptions o;
    o.itb_support = false;
    return o;
  }
};

struct NicStats {
  std::uint64_t sent = 0;               // injections for host sends
  std::uint64_t received = 0;           // packets fully received
  std::uint64_t delivered_to_host = 0;  // RDMA completions
  std::uint64_t itb_forwarded = 0;      // re-injections performed
  std::uint64_t itb_pending_hits = 0;   // ITB found send DMA busy
  std::uint64_t dropped_no_buffer = 0;  // drop_when_full discards
  std::uint64_t dropped_unroutable = 0;  // unroutable at the CURRENT epoch
  std::uint64_t resourced_sends = 0;     // re-queued across a table hot-swap
  std::uint64_t rx_unknown_type = 0;    // e.g. ITB packet at original MCP
  std::uint64_t rx_bad_crc = 0;         // corrupted packets discarded
  std::uint64_t rx_aborted = 0;         // receptions lost mid-flight
};

/// Host-side observer (the GM library implements this).
class NicClient {
 public:
  virtual ~NicClient() = default;

  /// A packet's payload landed in host memory (RDMA complete). `payload`
  /// is the received wire buffer itself, route, type and CRC stripped.
  virtual void on_message(sim::Time t, packet::PacketType type,
                          packet::Bytes payload) = 0;

  /// The send posted with this token fully left the NIC.
  virtual void on_send_complete(sim::Time t, std::uint64_t token) = 0;
};

class Nic final : public net::HostHooks {
 public:
  static constexpr std::size_t kMtu = 4096;  // GM packet payload limit

  Nic(sim::EventQueue& queue, net::Network& network, host::PciBus& pci,
      std::uint16_t host, const LanaiTiming& timing, const McpOptions& options);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  void set_client(NicClient* client) { client_ = client; }

  /// Install the source-route segments toward `dst` (what the mapper
  /// downloads into NIC SRAM). Copy on write: the NIC's row may be shared
  /// with a route table, so this builds a new row.
  void set_route(std::uint16_t dst, const std::vector<packet::Route>& segments);

  /// Install this host's row of `table` and the table's epoch. The row is
  /// shared with the table, not copied: installing swaps a pointer.
  void load_routes(const routing::RouteTable& table);

  /// Install a ready row from this host to every destination (hand-built
  /// routes, encoded once by the cluster). The epoch stays.
  void load_routes(std::shared_ptr<const routing::RouteRow> row);

  /// The installed route toward `dst`: its header is what the MCP stamps
  /// on the next send. Empty when none is installed, and toward this host.
  routing::RouteView route(std::uint16_t dst) const {
    return routes_ && dst < routes_->size() ? routes_->route(host_, dst)
                                            : routing::RouteView{};
  }

  /// True when a (non-empty) route toward `dst` is installed. Degraded
  /// tables leave unreachable destinations route-less; callers check this
  /// instead of eating post_send's no-route throw.
  bool has_route(std::uint16_t dst) const { return !route(dst).empty(); }

  /// Queue a payload for transmission; returns the send token. The bytes
  /// are copied into the send's SRAM buffer (what the SDMA stage models),
  /// so the caller keeps its own — GM retransmits from it. Fragmenting
  /// messages into MTU-sized packets is the GM layer's job.
  std::uint64_t post_send(std::uint16_t dst,
                          std::span<const std::uint8_t> payload,
                          packet::PacketType type = packet::PacketType::kGm) {
    return post_send(dst, {}, payload, type);
  }

  /// The same for a payload in two pieces, `header` then `data` (GM's
  /// header and its fragment), copied into the buffer back to back.
  std::uint64_t post_send(std::uint16_t dst,
                          std::span<const std::uint8_t> header,
                          std::span<const std::uint8_t> data,
                          packet::PacketType type = packet::PacketType::kGm);

  const NicStats& stats() const { return stats_; }
  const McpOptions& options() const { return options_; }
  const LanaiTiming& timing() const { return timing_; }
  std::uint16_t host() const { return host_; }
  /// Hosts of the network this NIC is attached to (valid destinations are
  /// below this, except the NIC's own host).
  std::uint16_t host_count() const {
    return static_cast<std::uint16_t>(network_.topology().host_count());
  }
  const McpCpu& cpu() const { return cpu_; }

  /// The network's flight recorder (nullptr when capture is off); the GM
  /// layer records its message-level events through this.
  flight::FlightRecorder* flight_recorder() const {
    return network_.flight_recorder();
  }

  // --- live occupancy, read by the telemetry sampler --------------------
  /// ITB packets waiting for the send DMA (the "pending" flag queue).
  std::size_t itb_pending_depth() const { return itb_pending_.size(); }
  /// Receive buffers currently reserved.
  int rx_buffers_in_use() const { return rx_reserved_; }
  bool send_dma_busy() const { return send_dma_busy_; }
  /// Cumulative time the send DMA was busy / at least one receive buffer
  /// was held, including the currently open window. Rate-sampling either
  /// one yields a busy fraction.
  sim::Duration send_dma_busy_ns() const;
  sim::Duration rx_busy_ns() const;
  /// Every receive buffer reserved — the condition that closes the host
  /// gate in backpressure mode. The liveness diagnoser reads this to place
  /// buffer nodes in the wait-for graph.
  bool rx_full() const { return rx_reserved_ >= options_.recv_buffers; }

  /// Watchdog escalation (§4 cure applied at runtime): flip this NIC from
  /// backpressure to the drop-on-full circular pool and reopen the host
  /// gate, so wedged upstream worms drain — arrivals that find no free
  /// buffer are accepted and discarded, and GM retransmission recovers
  /// them. Returns true when the mode actually changed.
  bool enable_drop_when_full();

  /// Metric table "nic" over `nics`, labelled by host and read in place:
  /// the NicStats counters, then MCP, DMA, receive and pool gauges.
  static std::unique_ptr<telemetry::MetricTable> metric_table(
      std::span<const std::unique_ptr<Nic>> nics);
  /// Table "nic" of itb_pending_depth() over `nics`, for the sampler (no
  /// snapshot exports it).
  static std::unique_ptr<telemetry::MetricTable> pending_table(
      std::span<const std::unique_ptr<Nic>> nics);

  // --- net::HostHooks ---------------------------------------------------
  void on_rx_head(sim::Time t, net::TxHandle h) override;
  void on_rx_early_header(sim::Time t, net::TxHandle h,
                          const packet::Bytes& head4) override;
  void on_rx_complete(sim::Time t, net::WirePacket packet) override;
  void on_tx_started(sim::Time t, net::TxHandle h) override;
  void on_tx_complete(sim::Time t, net::TxHandle h) override;
  void on_tx_dropped(sim::Time t, net::TxHandle h) override;
  void on_rx_aborted(sim::Time t, net::TxHandle h) override;

 private:
  /// One host send in the SDMA/SRAM pipeline. Lives in `send_pool_` so the
  /// MCP closures capture a 16-byte {this, handle} instead of the payload
  /// vector, and the payload buffer is recycled warm across sends: it is
  /// only ever copied into, never moved from or replaced.
  struct PostedSend {
    std::uint64_t token = 0;
    std::uint16_t dst = 0;
    packet::PacketType type = packet::PacketType::kGm;
    /// Route-table epoch the send was admitted under. A send that reaches
    /// the head of the SRAM pipeline with no route AND a stale epoch is
    /// re-sourced (one retry per epoch) instead of dropped — the table was
    /// hot-swapped underneath it, and the new table may route differently.
    std::uint64_t epoch = 0;
    packet::Bytes payload;
  };

  /// In-flight transmission bookkeeping: one record per handle until its
  /// tx completes or drops. The population is bounded by the SRAM send
  /// buffers plus re-injections in flight (a handful), so a flat vector
  /// with linear lookup and swap-remove beats a hash map.
  struct TxRec {
    net::TxHandle handle = 0;
    std::uint64_t token = 0;        // host send: completion token
    net::TxHandle reinject_of = 0;  // re-injection: the original reception
    bool is_reinject = false;
  };

  /// Receive-side special states. Normal receptions never get a record;
  /// one is created when a packet is doomed (drop_when_full) or claimed as
  /// ITB, and erased when its buffer is released. Bounded by recv_buffers
  /// plus the ITB pending queue, so flat + swap-remove again.
  struct RxRec {
    net::TxHandle handle = 0;
    bool doomed = false;    // arrived with no free buffer; discard at tail
    bool claimed = false;   // Early Recv identified an ITB packet
    bool injected = false;  // re-injection has started (owns the rx buffer)
    bool stashed = false;   // completed before re-injection; bytes kept
    net::WirePacket stash;  // its crc_intact also rides a re-injection
  };

  // SDMA: pull host sends into SRAM send buffers.
  void sdma_pump();
  // Send: stamp routes and inject ready buffers.
  void send_pump();
  // Busy-time accounting around the send DMA flag / rx buffer count.
  void set_send_dma(bool busy);
  // Free the send DMA and serve a pending ITB packet first (Fig. 5), else
  // the next ready send. True when it served a pending ITB packet.
  bool release_send_dma();
  // ITB: forward an in-transit packet (from peek or a stashed completion).
  void forward_itb(net::TxHandle h);
  void start_reinjection(net::TxHandle h);
  void free_recv_buffer();

  TxRec* find_tx(net::TxHandle h);
  void erase_tx(TxRec* rec);
  RxRec* find_rx(net::TxHandle h);
  /// Find-or-create (fresh handles get a zeroed record).
  RxRec& rx_rec(net::TxHandle h);
  void erase_rx(RxRec* rec);

  sim::EventQueue& queue_;
  net::Network& network_;
  host::PciBus& pci_;
  std::uint16_t host_;
  LanaiTiming timing_;
  McpOptions options_;
  McpCpu cpu_;
  NicClient* client_ = nullptr;
  NicStats stats_;

  /// This host's route row (the header to stamp per destination), shared
  /// with the table and switch-mates; null until routes are installed.
  std::shared_ptr<const routing::RouteRow> routes_;

  // Send path.
  sim::SlabPool<PostedSend, 64> send_pool_;
  sim::FlatFifo<sim::PoolHandle> host_queue_;      // waiting for SDMA
  sim::FlatFifo<sim::PoolHandle> ready_buffers_;   // SRAM, ready to send
  int sdma_in_flight_ = 0;                  // host DMA transfers running
  bool send_dma_busy_ = false;
  sim::Time send_dma_since_ = 0;            // busy-window start
  sim::Duration send_dma_busy_ns_ = 0;      // closed busy windows
  std::uint64_t next_token_ = 1;
  std::uint64_t route_epoch_ = 0;           // epoch of the loaded table
  std::vector<TxRec> tx_live_;              // in-flight transmissions

  // Receive path.
  int rx_reserved_ = 0;                     // buffers in use
  sim::Time rx_busy_since_ = 0;             // occupancy-window start
  sim::Duration rx_busy_ns_ = 0;            // closed occupancy windows
  std::vector<RxRec> rx_recs_;              // doomed / ITB receptions
  sim::FlatFifo<net::TxHandle> itb_pending_;  // waiting for send DMA
};

}  // namespace itb::nic
