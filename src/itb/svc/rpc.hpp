// RPC endpoint over GM: request/response with admission control.
//
// The paper's §6 next step is application traffic over the ITB fabric; this
// is the request/response service layer that generates it (DESIGN.md §6h).
// One RpcEndpoint sits on each host's GmPort and plays both roles:
//
//   RpcClient — issues calls with a deadline and bounded retries. A call's
//     clock starts at call() (client-side send queueing counts — open-loop
//     measurement must not hide coordinated omission). Responses correlate
//     by request id; an attempt whose deadline passes is re-issued under a
//     fresh id (the late response, if any, is counted stale), and a call
//     that exhausts its retries is a deadline miss AND a failure.
//
//   RpcServer — admits requests through an AdmissionController (tokened
//     capacity, bounded blocked-buffer, priority classes, BufferEON-style
//     first-fit admit-on-departure), charges the requested service time on
//     the event queue while the tokens are held, then returns a response of
//     the requested size. Rejected requests get an immediate NACK so the
//     client can retry or fail fast instead of burning its deadline.
//
// Reliability layering: GM already provides reliable ordered delivery with
// bounded retransmission underneath, so RPC retries only fire on
// service-level events (admission rejection, deadline expiry, dead peer) —
// packet loss inside a fault window surfaces as added network latency, not
// as an RPC-visible error, exactly the separation §3 of the paper assigns
// to GM.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "itb/gm/port.hpp"
#include "itb/svc/admission.hpp"
#include "itb/svc/slo.hpp"
#include "itb/telemetry/metrics.hpp"

namespace itb::svc {

/// Wire header carried in the first bytes of every GM message exchanged by
/// the service layer. Requests pad to the configured request size;
/// responses pad to the requested response size.
struct RpcHeader {
  enum Kind : std::uint8_t { kRequest = 1, kResponse = 2, kReject = 3 };

  std::uint8_t kind = kRequest;
  Priority cls = Priority::kNormal;
  std::uint16_t client = 0;           // requesting host (response routing)
  std::uint32_t req_id = 0;           // correlation id, per-client namespace
  std::uint64_t issued_ns = 0;        // client clock at call(), echoed back
  std::uint64_t service_ns = 0;       // requested service time
  std::uint32_t resp_bytes = 0;       // requested response payload size
  std::uint64_t admit_wait_ns = 0;    // response: admission-buffer wait
  std::uint64_t service_span_ns = 0;  // response: tokens-held span

  static constexpr std::size_t kSize = 1 + 1 + 2 + 4 + 8 + 8 + 4 + 8 + 8;

  packet::Bytes encode(std::size_t message_bytes) const;
  static std::optional<RpcHeader> decode(const packet::Bytes& msg);
};

/// Messages GM refused for want of a send token, retried in order every
/// `retry_gap` until GM takes them. Each RPC role owns one, with its own
/// queue and timer. A message whose destination has failed is dropped.
class SendBacklog {
 public:
  /// Each refusal bumps `refused`; each drop to a failed peer bumps
  /// `dead_peer_drops` when given.
  SendBacklog(sim::EventQueue& queue, gm::GmPort& port,
              sim::Duration retry_gap, std::uint64_t& refused,
              std::uint64_t* dead_peer_drops = nullptr);
  // Its retry timer holds `this`.
  SendBacklog(const SendBacklog&) = delete;
  SendBacklog& operator=(const SendBacklog&) = delete;

  /// Hand `msg` to GM, or queue it behind the messages GM refused before.
  void send(std::uint16_t dst, packet::Bytes msg);

 private:
  bool dropped(std::uint16_t dst);
  bool hand_to_gm(std::uint16_t dst, packet::Bytes& msg);
  void arm();
  void flush();

  sim::EventQueue& queue_;
  gm::GmPort& port_;
  sim::Duration retry_gap_;
  std::uint64_t& refused_;
  std::uint64_t* dead_peer_drops_;
  std::deque<std::pair<std::uint16_t, packet::Bytes>> pending_;
  bool flush_armed_ = false;
};

struct RpcServerConfig {
  AdmissionConfig admission;
  /// Token cost of a request: 1 + service_ns / cost_quantum, clamped to
  /// [1, max_cost]. Heavy requests hold more of the server, which is what
  /// makes first-fit admission meaningful under heavy-tailed service sizes.
  sim::Duration cost_quantum = 100 * sim::kUs;
  int max_cost = 4;
  /// Retry cadence for responses refused by GM send-token exhaustion.
  sim::Duration send_retry_gap = 20 * sim::kUs;
};

struct RpcServerStats {
  std::uint64_t requests = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t rejects_sent = 0;
  std::uint64_t send_retries = 0;       // GM refused, will retry
  std::uint64_t dead_peer_drops = 0;    // response dropped: peer failed
  std::uint64_t malformed = 0;          // undecodable request payloads
};

class RpcServer {
 public:
  RpcServer(sim::EventQueue& queue, gm::GmPort& port,
            const RpcServerConfig& config);

  /// Dispatch one decoded request (the endpoint demuxes kinds).
  void handle_request(sim::Time t, std::uint16_t src, const RpcHeader& h);

  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }
  const RpcServerStats& stats() const { return stats_; }

 private:
  friend class RpcEndpoint;
  int cost_of(const RpcHeader& h) const;
  void start_service(std::uint16_t src, RpcHeader h, sim::Duration wait);
  void respond(std::uint16_t dst, RpcHeader h);

  sim::EventQueue& queue_;
  RpcServerConfig config_;
  AdmissionController admission_;
  RpcServerStats stats_;
  SendBacklog backlog_;
};

struct RpcClientConfig {
  /// Per-class deadlines, call() to response.
  std::array<sim::Duration, kPriorityClasses> deadlines = {
      1 * sim::kMs, 4 * sim::kMs, 16 * sim::kMs};
  /// Re-issues allowed after a deadline expiry or admission rejection.
  int max_retries = 1;
  /// Wait before re-issuing a rejected call (deadline retries go out
  /// immediately — the deadline already paced them).
  sim::Duration reject_backoff = 100 * sim::kUs;
  /// Bound on calls in flight per client; call() refuses beyond it (an
  /// open-loop driver counts the refusal instead of blocking).
  std::size_t pending_limit = 4096;
  /// Request message size on the wire (>= RpcHeader::kSize).
  std::size_t request_bytes = 128;
  /// Retry cadence for requests refused by GM send-token exhaustion.
  sim::Duration send_retry_gap = 20 * sim::kUs;
  /// Only calls issued inside [measure_start, measure_end] touch SloStats
  /// (warmup/cool-down requests still execute, unrecorded).
  sim::Time measure_start = 0;
  sim::Time measure_end = INT64_MAX;
};

/// One outgoing call.
struct CallSpec {
  std::uint16_t dst = 0;
  Priority cls = Priority::kNormal;
  sim::Duration service = 20 * sim::kUs;
  std::uint32_t resp_bytes = 512;
};

class RpcClient {
 public:
  RpcClient(sim::EventQueue& queue, gm::GmPort& port,
            const RpcClientConfig& config);

  /// Issue a call. Returns false (and counts client_refused) when
  /// pending_limit is reached.
  bool call(const CallSpec& spec);

  /// Dispatch one decoded response/reject (the endpoint demuxes kinds).
  void handle_response(sim::Time t, const RpcHeader& h);

  const SloStats& slo() const { return slo_; }
  std::size_t pending() const { return pending_.size(); }
  std::uint64_t gm_backpressure() const { return gm_backpressure_; }

 private:
  struct Pending {
    CallSpec spec;
    sim::Time first_issued = 0;  // end-to-end clock across retries
    int attempt = 1;
    bool tracked = true;
    sim::EventId deadline_ev{};
  };

  void issue(std::uint32_t id, Pending p);
  void on_deadline(std::uint32_t id);
  void retry(std::uint32_t id, Pending p);
  void finish_failed(Pending& p);
  SloClassStats& slo_of(const Pending& p) {
    return slo_.cls[static_cast<std::size_t>(p.spec.cls)];
  }

  sim::EventQueue& queue_;
  gm::GmPort& port_;
  RpcClientConfig config_;
  SloStats slo_;
  std::uint32_t next_id_ = 1;
  std::unordered_map<std::uint32_t, Pending> pending_;
  std::uint64_t gm_backpressure_ = 0;
  SendBacklog backlog_;
};

struct EndpointConfig {
  RpcServerConfig server;
  RpcClientConfig client;
};

/// Both RPC roles on one host's GmPort. Owns the port's receive handler
/// and demuxes by header kind: requests to the server, responses to the
/// client. Construct one per host before any traffic flows.
class RpcEndpoint {
 public:
  RpcEndpoint(sim::EventQueue& queue, gm::GmPort& port,
              const EndpointConfig& config = {});

  RpcServer& server() { return server_; }
  RpcClient& client() { return client_; }
  const RpcServer& server() const { return server_; }
  const RpcClient& client() const { return client_; }
  std::uint16_t host() const { return port_.host(); }

  /// Metric table "svc" over `endpoints`, labelled by host: the server's
  /// and its admission controller's counters and gauges, the client's SLO
  /// counters per priority class, then its backpressure and pending calls.
  /// The endpoints must outlive every snapshot that reads the table.
  static std::unique_ptr<telemetry::MetricTable> metric_table(
      std::span<const std::unique_ptr<RpcEndpoint>> endpoints);

 private:
  gm::GmPort& port_;
  RpcServer server_;
  RpcClient client_;
};

}  // namespace itb::svc
