// WormTimeline: stitch flight events into per-packet journeys and compute
// the critical-path latency attribution (DESIGN.md §6g).
//
// A *journey* is one logical packet's life from the host posting it (or its
// wire injection, for packets the recorder first saw there) to the RDMA
// completion at the final destination, following ITB re-injections across
// transmission handles: the chain tx(A) --eject at ITB host--> tx(B) is one
// journey with two wire segments and one ITB hop.
//
// Stage attribution telescopes over recorded markers, so for every complete
// journey   sum(stages) == end - start   EXACTLY (integer nanoseconds, no
// estimation) — the invariant the fig8 bench and CI assert within 1 ns:
//
//   host_tx      send-post -> wire inject   (SDMA queue + PCI DMA + MCP send)
//   inject_wait  inject -> first channel grant (entry arbitration)
//   queueing     blocked-head waits at later hops (wormhole contention)
//   wire         head motion: link crossings + switch fall-through
//   itb_detect   NIC eject -> Early Recv raise (4 bytes + trigger)
//   itb_wait     Early Recv -> DMA programming (type probe, dispatch,
//                "ITB packet pending" queueing behind a busy send DMA)
//   itb_dma      DMA programming -> re-injection on the wire (program +
//                send DMA spin-up)
//   stream       head -> tail at the final NIC (payload pipelining)
//   delivery     tail -> RDMA completion (recv classify + PCI + completion)
#pragma once

#include <cstdint>
#include <vector>

#include "itb/flight/recorder.hpp"
#include "itb/sim/time.hpp"

namespace itb::flight {

/// Per-stage nanosecond totals; stages() iterates them with names.
struct StageBreakdown {
  sim::Duration host_tx = 0;
  sim::Duration inject_wait = 0;
  sim::Duration queueing = 0;
  sim::Duration wire = 0;
  sim::Duration itb_detect = 0;
  sim::Duration itb_wait = 0;
  sim::Duration itb_dma = 0;
  sim::Duration stream = 0;
  sim::Duration delivery = 0;

  sim::Duration total() const {
    return host_tx + inject_wait + queueing + wire + itb_detect + itb_wait +
           itb_dma + stream + delivery;
  }
  void add(const StageBreakdown& o);
};

/// Stage names + accessors, in display order (shared by the printers, the
/// Chrome exporter and the flight.path.* metrics).
struct StageView {
  const char* name;
  sim::Duration StageBreakdown::* field;
};
const std::vector<StageView>& stage_views();

/// One ITB crossing inside a journey, with its sub-span instants.
struct ItbHop {
  std::uint16_t host = 0;
  sim::Time eject = 0;      // head reached the in-transit NIC
  sim::Time early = 0;      // Early Recv raised
  sim::Time dma_start = 0;  // re-injection DMA programming began
  sim::Time reinject = 0;   // continuation transmission entered the wire
};

enum class Outcome : std::uint8_t {
  kDelivered,   // RDMA completion observed
  kDropped,     // network discard (bad route / unattached destination)
  kLost,        // destroyed by a fault
  kForceEjected,// destroyed by the watchdog escalation
  kInFlight,    // recording ended mid-journey
};
const char* to_string(Outcome o);

struct Journey {
  std::uint64_t root = 0;        // first transmission handle of the chain
  std::uint16_t src = 0;
  std::uint16_t dst = 0;         // last host the head reached
  std::uint64_t wire_bytes = 0;  // length of the first injection
  sim::Time start = 0;           // send-post (preferred) or wire inject
  sim::Time end = 0;             // deliver, terminal event, or last marker
  Outcome outcome = Outcome::kInFlight;
  /// Ring eviction consumed this journey's early events; stages cover only
  /// the surviving suffix and the telescoping invariant is not claimed.
  bool truncated = false;
  /// Delivered, untruncated, with every marker present: stages().total()
  /// == end - start holds exactly.
  bool complete = false;
  StageBreakdown stages;
  std::vector<ItbHop> itb_hops;
  std::vector<std::uint64_t> segments;  // transmission handles, in order
};

class WormTimeline {
 public:
  explicit WormTimeline(const Recording& recording);

  const std::vector<Journey>& journeys() const { return journeys_; }
  std::size_t complete_count() const { return complete_; }

  /// Stage totals over complete journeys (the flight.path.* export).
  StageBreakdown totals() const { return totals_; }

  /// Largest |stages.total() - (end - start)| over complete journeys.
  /// Zero whenever the capture is intact — the bench/CI assertion.
  sim::Duration max_stage_residual() const { return max_residual_; }

  /// Mean ITB-hop split (detect / wait / dma) over every recorded hop —
  /// the Fig. 8 ≈1.3 µs attribution. Zeros when no hop was recorded.
  struct ItbHopSplit {
    std::size_t hops = 0;
    double detect_ns = 0, wait_ns = 0, dma_ns = 0;
    double total_ns() const { return detect_ns + wait_ns + dma_ns; }
  };
  ItbHopSplit itb_hop_split() const;

 private:
  std::vector<Journey> journeys_;
  StageBreakdown totals_;
  std::size_t complete_ = 0;
  sim::Duration max_residual_ = 0;
};

}  // namespace itb::flight
