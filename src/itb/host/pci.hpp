// Host I/O bus (PCI) model.
//
// The LANai's single host-DMA engine moves data between host memory and NIC
// SRAM across PCI. Transfers serialize on the bus: the paper's NICs are
// 64-bit/66 MHz parts (528 MB/s peak) on PIII hosts; the 32-bit/33 MHz
// fallback (132 MB/s) is provided for sensitivity studies.
#pragma once

#include <cstdint>

#include "itb/sim/event_queue.hpp"
#include "itb/sim/flat_fifo.hpp"
#include "itb/sim/inline_function.hpp"
#include "itb/sim/time.hpp"

namespace itb::host {

struct PciTiming {
  /// Effective transfer rate as ns per 256 bytes.
  /// 64-bit/66 MHz: ~528 MB/s sustained => ~485 ns / 256 B.
  std::int64_t ns_per_256bytes = 485;
  /// Per-DMA setup: descriptor fetch, bus acquisition, completion status.
  sim::Duration setup_ns = 600;

  static PciTiming pci64_66() { return PciTiming{485, 600}; }
  static PciTiming pci32_33() { return PciTiming{1940, 900}; }

  sim::Duration transfer_time(std::int64_t bytes) const {
    return setup_ns + sim::scaled_bytes_time(bytes, ns_per_256bytes);
  }
};

/// One host's PCI bus / host-DMA engine: transfers run one at a time in
/// FIFO order, each costing setup + bytes at the bus rate.
class PciBus {
 public:
  /// Completion callback of one DMA, stored inline. The largest, the
  /// NIC's receive DMA, carries its payload buffer and three scalars
  /// (48 B); a capture past 64 B would silently go to the heap.
  using Done = sim::InlineFunction<void(), 64>;

  PciBus(sim::EventQueue& queue, PciTiming timing)
      : queue_(queue), timing_(timing) {}

  /// Enqueue a DMA of `bytes`; `done` fires at its completion time.
  void dma(std::int64_t bytes, Done done);

  bool busy() const { return busy_; }
  const PciTiming& timing() const { return timing_; }
  std::uint64_t completed() const { return completed_; }

 private:
  struct Pending {
    std::int64_t bytes = 0;
    Done done;
  };

  void start_next();
  /// Put `running_` on the bus for a transfer of `bytes`.
  void start(std::int64_t bytes);

  sim::EventQueue& queue_;
  PciTiming timing_;
  sim::FlatFifo<Pending> pending_;
  /// The transfer on the bus. Its callback waits here rather than inside
  /// the completion event: an event closure capturing a 64-byte callback
  /// would not fit the event slot inline and would go to the heap.
  Done running_;
  bool busy_ = false;
  std::uint64_t completed_ = 0;
};

}  // namespace itb::host
