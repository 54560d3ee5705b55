// Flight recorder: packed packet-lifecycle capture (DESIGN.md §6g).
//
// The paper's headline numbers are latency *attributions*: Fig. 7's ≈125 ns
// is the receive-path dispatch cost, Fig. 8's ≈1.3 µs is one ITB hop's
// eject-probe-reinject cost. Histograms cannot produce those splits; a
// per-packet event log can. The FlightRecorder is a fixed-capacity binary
// ring of packed FlightEvents fed by cheap hooks in net::Network, nic::Nic
// and gm::GmPort — every hook is one pointer test when recording is off —
// from which flight::WormTimeline reconstructs per-packet spans and
// flight::ReplayChecker derives a deterministic run fingerprint.
//
// The ring overwrites oldest events when full (evicted() counts them), but
// the fingerprint is folded in at record time, so it covers the FULL event
// stream regardless of ring capacity: two runs with different capacities
// still fingerprint identically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "itb/sim/time.hpp"
#include "itb/telemetry/metrics.hpp"

namespace itb::flight {

/// Lifecycle stations of a packet, in rough causal order. The stream is a
/// stable format surface: values are serialized into itb.flight.v1 files,
/// so append new types at the end, never renumber.
enum class EventType : std::uint8_t {
  kInject = 0,     // Network::inject accepted the packet (node=src host,
                   //   aux=wire length in bytes)
  kHeadBlock,      // head parked in a channel's waiter queue (aux=channel)
  kGrant,          // a directed channel was granted to the head (aux=channel)
  kHeadSwitch,     // head crossed into a switch (node=switch, detail=out port)
  kNicEject,       // head reached a host NIC (node=host): ejection starts
  kTail,           // last byte landed at the NIC (node=host)
  kEarlyRecv,      // LANai raised Early Recv Packet (node=host,
                   //   detail=1 when the type probe found an ITB packet)
  kItbDmaStart,    // Recv machine began programming the re-injection DMA
  kReinject,       // re-injection entered the wire: handle=new transmission,
                   //   aux=the ejected transmission it continues
  kDeliver,        // RDMA completion handed the payload to the host
  kDrop,           // network discarded the packet (bad route / unattached)
  kLost,           // a fault destroyed the worm mid-flight (aux=link)
  kForceEject,     // watchdog escalation destroyed the worm (aux=link)
  kSendPost,       // host posted a send to the NIC (node=host, aux=token,
                   //   detail=packet type byte)
  kTxBind,         // posted send became a wire transmission (aux=token)
  kGmSend,         // gm_send() accepted a message (handle=msg id, node=dst)
  kGmDeliver,      // GM receive handler dispatched (handle=msg id, node=src)
};

const char* to_string(EventType t);

/// One packed lifecycle event. 32 bytes in memory; serialized and hashed
/// field-by-field (28 canonical bytes), never as raw struct memory, so
/// padding can never leak into fingerprints or files.
struct FlightEvent {
  sim::Time t = 0;            // simulated instant
  std::uint64_t handle = 0;   // net::TxHandle, GM msg id, or 0
  std::uint64_t aux = 0;      // per-type: length, channel, token, link, ...
  std::uint16_t node = 0;     // host or switch index
  EventType type = EventType::kInject;
  std::uint8_t detail = 0;    // per-type small payload

  friend bool operator==(const FlightEvent&, const FlightEvent&) = default;
};

/// "time type tx… @node aux" — for divergence reports and debugging.
std::string describe(const FlightEvent& e);

/// An unwrapped snapshot of a recorder (or a deserialized itb.flight.v1
/// file): events in stream order, plus the whole-stream accounting.
struct Recording {
  std::vector<FlightEvent> events;
  std::uint64_t recorded = 0;     // events ever recorded (incl. evicted)
  std::uint64_t evicted = 0;      // oldest events overwritten by the ring
  std::uint64_t fingerprint = 0;  // whole-stream order-sensitive hash

  /// Append `other` after this recording (point-order merge for sweep
  /// benches): events concatenate, counters add, fingerprints chain.
  void append(const Recording& other);
};

struct RecorderConfig {
  bool enabled = false;
  /// Ring capacity in events (32 B each). The default keeps every event of
  /// a figure bench while bounding a chaos soak to ~8 MB.
  std::size_t capacity = std::size_t{1} << 18;
};

/// Seed and one FNV-1a 64 step, exposed so ReplayChecker can chain
/// per-cluster fingerprints the same way the recorder chains events.
inline constexpr std::uint64_t kFingerprintSeed = 0xcbf29ce484222325ull;
constexpr std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

class FlightRecorder {
 public:
  explicit FlightRecorder(const RecorderConfig& config = {});

  /// Append one event. Amortized O(1); overwrites the oldest event when the
  /// ring is full. Also folds the event into the running fingerprint.
  void record(const FlightEvent& e);

  /// Convenience for the hook sites.
  void record(EventType type, sim::Time t, std::uint64_t handle,
              std::uint16_t node = 0, std::uint64_t aux = 0,
              std::uint8_t detail = 0) {
    record(FlightEvent{t, handle, aux, node, type, detail});
  }

  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t evicted() const { return evicted_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Events currently held in the ring.
  std::size_t size() const { return count_; }
  /// Running whole-stream fingerprint (covers evicted events too).
  std::uint64_t fingerprint() const { return hash_; }

  /// Copy the ring out in stream order.
  Recording snapshot() const;

  /// Metric table "flight": recorded, evicted, fingerprint low bits.
  std::unique_ptr<telemetry::MetricTable> metric_table() const;

 private:
  std::vector<FlightEvent> ring_;  // fixed capacity, allocated up front
  std::size_t head_ = 0;           // next write slot
  std::size_t count_ = 0;          // live events (<= capacity)
  std::uint64_t recorded_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t hash_ = kFingerprintSeed;
};

}  // namespace itb::flight
