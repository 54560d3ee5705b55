// LANai processor model.
//
// The LANai is a 32-bit RISC running the MCP out of NIC SRAM (paper Fig. 2).
// We model it as a sequential processor executing prioritised jobs, each
// billed an instruction-path cost in LANai cycles; the paper's overhead
// numbers (125 ns/packet for the ITB type probe, 1.3 us per ITB forward) are
// exactly such instruction-path costs, so modelling at this granularity is
// what lets the reproduction measure them.
//
// Jobs do not preempt each other: the MCP's event handler only regains
// control between state-machine steps, so a high-priority event posted while
// another runs waits for it to finish — the "dispatching cycle delay" that
// the Recv-side re-injection shortcut avoids (Fig. 4, dashed lines).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "itb/sim/event_queue.hpp"
#include "itb/sim/inline_function.hpp"
#include "itb/sim/time.hpp"

namespace itb::nic {

/// LANai clock and MCP instruction-path costs (in LANai cycles).
/// Defaults model a 33 MHz LANai-4 class part (30 ns/cycle) and are
/// calibrated so the bench binaries land on the paper's measurements.
struct LanaiTiming {
  sim::Duration cycle_ns = 30;

  // --- costs shared by both MCP variants -------------------------------
  int dispatch = 4;          // event-handler dispatch to a state machine
  int sdma_process = 30;     // fetch host send descriptor, program host DMA
  int send_process = 36;     // stamp route from table, program send DMA
  int send_dma_start = 12;   // send DMA spin-up before the first byte moves
  int recv_process = 40;     // classify packet, program RDMA to host
  int rdma_complete = 16;    // completion handling, recycle receive buffer
  int send_complete = 12;    // send-DMA completion, free the send buffer

  // --- costs only present in the ITB-capable MCP -----------------------
  int itb_recv_extra = 4;    // extra type-probe instructions in the normal
                             // receive path (the Fig. 7 ~125 ns overhead)
  int early_recv_check = 2;  // Early Recv event: is the packet an ITB one?
  int itb_program_send = 26; // decode ITB header, strip tag, program the
                             // re-injection DMA (Fig. 8's dominant term)

  sim::Duration cycles(int n) const { return n * cycle_ns; }
};

/// Priorities for MCP jobs; lower value runs first. Mirrors the paper's
/// "highest priority pending event" dispatch rule with Early Recv added as
/// a new high-priority event (§4).
enum class McpPriority : int {
  kEarlyRecv = 0,
  kItbPendingSend = 1,
  kRecvComplete = 2,
  kSendComplete = 3,
  kRdmaComplete = 4,
  kSdma = 5,
  kHostRequest = 6,
};

/// Sequential prioritised executor for MCP jobs.
class McpCpu {
 public:
  /// One MCP state-machine step. Stored inline, never on the heap: the
  /// largest job, the receive handler, carries a whole net::WirePacket
  /// (56 B with `this`).
  using Job = sim::InlineFunction<void(), 64>;

  McpCpu(sim::EventQueue& queue, const LanaiTiming& timing)
      : queue_(queue), timing_(timing) {}

  /// Post a job: when the CPU reaches it, it is busy for `cycles` plus the
  /// dispatch cost, then `fn` runs (at the end of the busy window).
  /// `skip_dispatch` models a state machine continuing straight into more
  /// work without returning to the event handler (the Recv-side
  /// re-injection shortcut of Fig. 4).
  void post(McpPriority priority, int cycles, Job fn,
            bool skip_dispatch = false);

  bool busy() const { return busy_; }

  /// Total cycles the CPU has executed (for utilisation reporting).
  std::int64_t busy_ns() const { return busy_ns_; }

  /// Jobs dispatched so far (telemetry: MCP event-handler activity).
  std::uint64_t jobs_executed() const { return jobs_executed_; }

 private:
  struct Queued {
    int priority;
    std::uint64_t seq;
    int cycles;
    bool skip_dispatch;
    Job fn;
  };
  struct Later {
    bool operator()(const Queued& a, const Queued& b) const {
      return a.priority > b.priority ||
             (a.priority == b.priority && a.seq > b.seq);
    }
  };

  void pump();
  /// Run `running_` for `cycles` (plus the dispatch cost unless skipped),
  /// then call it and pump() the next job.
  void start(int cycles, bool skip_dispatch);

  sim::EventQueue& queue_;
  LanaiTiming timing_;
  std::priority_queue<Queued, std::vector<Queued>, Later> jobs_;
  /// The job in its busy window. It waits here rather than inside the
  /// completion event: an event closure capturing a 64-byte Job would not
  /// fit the event slot inline and would go to the heap.
  Job running_;
  bool busy_ = false;
  std::uint64_t next_seq_ = 0;
  std::int64_t busy_ns_ = 0;
  std::uint64_t jobs_executed_ = 0;
};

}  // namespace itb::nic
