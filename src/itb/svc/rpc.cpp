#include "itb/svc/rpc.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

namespace itb::svc {

namespace {

void put_u16(packet::Bytes& b, std::size_t at, std::uint16_t v) {
  b[at] = static_cast<std::uint8_t>(v);
  b[at + 1] = static_cast<std::uint8_t>(v >> 8);
}
void put_u32(packet::Bytes& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u64(packet::Bytes& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint16_t get_u16(const packet::Bytes& b, std::size_t at) {
  return static_cast<std::uint16_t>(b[at] | (b[at + 1] << 8));
}
std::uint32_t get_u32(const packet::Bytes& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | b[at + static_cast<std::size_t>(i)];
  return v;
}
std::uint64_t get_u64(const packet::Bytes& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | b[at + static_cast<std::size_t>(i)];
  return v;
}

}  // namespace

packet::Bytes RpcHeader::encode(std::size_t message_bytes) const {
  packet::Bytes b(std::max(message_bytes, kSize), 0);
  b[0] = kind;
  b[1] = static_cast<std::uint8_t>(cls);
  put_u16(b, 2, client);
  put_u32(b, 4, req_id);
  put_u64(b, 8, issued_ns);
  put_u64(b, 16, service_ns);
  put_u32(b, 24, resp_bytes);
  put_u64(b, 28, admit_wait_ns);
  put_u64(b, 36, service_span_ns);
  return b;
}

std::optional<RpcHeader> RpcHeader::decode(const packet::Bytes& msg) {
  if (msg.size() < kSize) return std::nullopt;
  RpcHeader h;
  if (msg[0] < kRequest || msg[0] > kReject) return std::nullopt;
  h.kind = msg[0];
  if (msg[1] >= kPriorityClasses) return std::nullopt;
  h.cls = static_cast<Priority>(msg[1]);
  h.client = get_u16(msg, 2);
  h.req_id = get_u32(msg, 4);
  h.issued_ns = get_u64(msg, 8);
  h.service_ns = get_u64(msg, 16);
  h.resp_bytes = get_u32(msg, 24);
  h.admit_wait_ns = get_u64(msg, 28);
  h.service_span_ns = get_u64(msg, 36);
  return h;
}

// --- SendBacklog -----------------------------------------------------------

SendBacklog::SendBacklog(sim::EventQueue& queue, gm::GmPort& port,
                         sim::Duration retry_gap, std::uint64_t& refused,
                         std::uint64_t* dead_peer_drops)
    : queue_(queue), port_(port), retry_gap_(retry_gap), refused_(refused),
      dead_peer_drops_(dead_peer_drops) {}

void SendBacklog::send(std::uint16_t dst, packet::Bytes msg) {
  if (dropped(dst)) return;
  if (pending_.empty() && hand_to_gm(dst, msg)) return;
  ++refused_;
  pending_.emplace_back(dst, std::move(msg));
  arm();
}

bool SendBacklog::dropped(std::uint16_t dst) {
  if (!port_.peer_failed(dst)) return false;
  if (dead_peer_drops_) ++*dead_peer_drops_;
  return true;
}

// To a live peer GM refuses a send only when no send token is free, so a
// probe first lets the buffer move instead of being copied for a refusal.
bool SendBacklog::hand_to_gm(std::uint16_t dst, packet::Bytes& msg) {
  return port_.tokens_available() > 0 && port_.send(dst, std::move(msg));
}

void SendBacklog::arm() {
  if (flush_armed_) return;
  flush_armed_ = true;
  queue_.schedule_in(retry_gap_, [this] { flush(); });
}

void SendBacklog::flush() {
  flush_armed_ = false;
  while (!pending_.empty()) {
    auto& [dst, msg] = pending_.front();
    if (!dropped(dst) && !hand_to_gm(dst, msg)) break;
    pending_.pop_front();
  }
  if (!pending_.empty()) arm();
}

// --- RpcServer -------------------------------------------------------------

RpcServer::RpcServer(sim::EventQueue& queue, gm::GmPort& port,
                     const RpcServerConfig& config)
    : queue_(queue), config_(config), admission_(queue, config.admission),
      backlog_(queue, port, config.send_retry_gap, stats_.send_retries,
               &stats_.dead_peer_drops) {}

int RpcServer::cost_of(const RpcHeader& h) const {
  const auto extra = static_cast<int>(
      static_cast<sim::Duration>(h.service_ns) / config_.cost_quantum);
  return std::clamp(1 + extra, 1, config_.max_cost);
}

void RpcServer::handle_request(sim::Time t, std::uint16_t src,
                               const RpcHeader& h) {
  ++stats_.requests;
  const int cost = cost_of(h);
  const sim::Time arrived = t;
  const auto outcome = admission_.offer(
      h.cls, cost,
      // Queued path: fires on admission (start the service, charging the
      // buffer wait) or on eviction by a higher-priority arrival (NACK).
      [this, src, h, arrived](sim::Time now, bool admitted) {
        if (admitted) {
          start_service(src, h, now - arrived);
        } else {
          RpcHeader r = h;
          r.kind = RpcHeader::kReject;
          ++stats_.rejects_sent;
          backlog_.send(src, r.encode(RpcHeader::kSize));
        }
      });
  if (outcome == AdmissionController::Outcome::kAdmitted) {
    start_service(src, h, 0);
  } else if (outcome == AdmissionController::Outcome::kRejected) {
    RpcHeader r = h;
    r.kind = RpcHeader::kReject;
    ++stats_.rejects_sent;
    backlog_.send(src, r.encode(RpcHeader::kSize));
  }
}

void RpcServer::start_service(std::uint16_t src, RpcHeader h,
                              sim::Duration wait) {
  const int cost = cost_of(h);
  h.admit_wait_ns = static_cast<std::uint64_t>(wait);
  h.service_span_ns = h.service_ns;
  queue_.schedule_in(
      std::max<sim::Duration>(static_cast<sim::Duration>(h.service_ns), 1),
      [this, src, h, cost] {
        admission_.depart(cost);
        respond(src, h);
      });
}

void RpcServer::respond(std::uint16_t dst, RpcHeader h) {
  h.kind = RpcHeader::kResponse;
  ++stats_.responses_sent;
  backlog_.send(dst, h.encode(h.resp_bytes));
}

// --- RpcClient -------------------------------------------------------------

RpcClient::RpcClient(sim::EventQueue& queue, gm::GmPort& port,
                     const RpcClientConfig& config)
    : queue_(queue), port_(port), config_(config),
      backlog_(queue, port, config.send_retry_gap, gm_backpressure_) {}

bool RpcClient::call(const CallSpec& spec) {
  const sim::Time now = queue_.now();
  const bool tracked =
      now >= config_.measure_start && now <= config_.measure_end;
  auto& cls = slo_.cls[static_cast<std::size_t>(spec.cls)];
  if (pending_.size() >= config_.pending_limit) {
    if (tracked) ++cls.client_refused;
    return false;
  }
  if (tracked) ++cls.issued;
  Pending p;
  p.spec = spec;
  p.first_issued = now;
  p.attempt = 1;
  p.tracked = tracked;
  issue(next_id_++, std::move(p));
  return true;
}

void RpcClient::issue(std::uint32_t id, Pending p) {
  RpcHeader h;
  h.kind = RpcHeader::kRequest;
  h.cls = p.spec.cls;
  h.client = port_.host();
  h.req_id = id;
  h.issued_ns = static_cast<std::uint64_t>(p.first_issued);
  h.service_ns = static_cast<std::uint64_t>(p.spec.service);
  h.resp_bytes = p.spec.resp_bytes;
  const std::uint16_t dst = p.spec.dst;
  const auto deadline =
      config_.deadlines[static_cast<std::size_t>(p.spec.cls)];
  p.deadline_ev =
      queue_.schedule_in(deadline, [this, id] { on_deadline(id); });
  pending_.emplace(id, std::move(p));
  // A failed peer drops the request; the deadline timer settles the call.
  backlog_.send(dst, h.encode(config_.request_bytes));
}

void RpcClient::on_deadline(std::uint32_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  pending_.erase(it);
  if (p.attempt <= config_.max_retries) {
    retry(id, std::move(p));
  } else {
    finish_failed(p);
  }
}

void RpcClient::retry(std::uint32_t, Pending p) {
  if (p.tracked) ++slo_of(p).retries;
  ++p.attempt;
  issue(next_id_++, std::move(p));
}

void RpcClient::finish_failed(Pending& p) {
  if (!p.tracked) return;
  auto& cls = slo_of(p);
  ++cls.failed;
  ++cls.deadline_misses;
}

void RpcClient::handle_response(sim::Time t, const RpcHeader& h) {
  auto it = pending_.find(h.req_id);
  if (it == pending_.end()) {
    ++slo_.cls[static_cast<std::size_t>(h.cls)].stale_responses;
    return;
  }
  Pending p = std::move(it->second);
  pending_.erase(it);
  queue_.cancel(p.deadline_ev);

  if (h.kind == RpcHeader::kReject) {
    if (p.tracked) ++slo_of(p).rejected;
    if (p.attempt <= config_.max_retries) {
      if (p.tracked) ++slo_of(p).retries;
      ++p.attempt;
      // Back off before the re-issue; the Pending travels in the closure.
      auto shared = std::make_shared<Pending>(std::move(p));
      queue_.schedule_in(config_.reject_backoff, [this, shared] {
        issue(next_id_++, std::move(*shared));
      });
    } else {
      finish_failed(p);
    }
    return;
  }

  if (!p.tracked) return;
  auto& cls = slo_of(p);
  ++cls.completed;
  const auto lat = static_cast<std::uint64_t>(t - p.first_issued);
  const auto deadline = static_cast<std::uint64_t>(
      config_.deadlines[static_cast<std::size_t>(p.spec.cls)]);
  if (lat <= deadline) {
    cls.goodput_bytes += h.resp_bytes;
  } else {
    ++cls.deadline_misses;
  }
  cls.total.record(lat);
  cls.admit.record(h.admit_wait_ns);
  cls.service.record(h.service_span_ns);
  const std::uint64_t attributed = h.admit_wait_ns + h.service_span_ns;
  cls.network.record(lat > attributed ? lat - attributed : 0);
}

// --- RpcEndpoint -----------------------------------------------------------

RpcEndpoint::RpcEndpoint(sim::EventQueue& queue, gm::GmPort& port,
                         const EndpointConfig& config)
    : port_(port),
      server_(queue, port, config.server),
      client_(queue, port, config.client) {
  port_.set_receive_handler(
      [this](sim::Time t, std::uint16_t src, packet::Bytes msg) {
        const auto h = RpcHeader::decode(msg);
        if (!h) {
          ++server_.stats_.malformed;
          return;
        }
        if (h->kind == RpcHeader::kRequest)
          server_.handle_request(t, src, *h);
        else
          client_.handle_response(t, *h);
      });
}

namespace {

template <std::uint64_t RpcServerStats::*M>
double server_stat(const RpcEndpoint& e) {
  return static_cast<double>(e.server().stats().*M);
}

template <std::uint64_t AdmissionStats::*M>
double admission_stat(const RpcEndpoint& e) {
  return static_cast<double>(e.server().admission().stats().*M);
}

template <Priority C, std::uint64_t SloClassStats::*M>
double client_stat(const RpcEndpoint& e) {
  return static_cast<double>(e.client().slo().of(C).*M);
}

}  // namespace

std::unique_ptr<telemetry::MetricTable> RpcEndpoint::metric_table(
    std::span<const std::unique_ptr<RpcEndpoint>> endpoints) {
  using enum telemetry::MetricKind;
  using enum Priority;
  using E = RpcEndpoint;
  using Srv = RpcServerStats;
  using Adm = AdmissionStats;
  using Slo = SloClassStats;
  static constexpr telemetry::Field<E> kFields[] = {
      {"server_requests", kCounter, server_stat<&Srv::requests>},
      {"server_responses", kCounter, server_stat<&Srv::responses_sent>},
      {"server_rejects", kCounter, server_stat<&Srv::rejects_sent>},
      {"server_send_retries", kCounter, server_stat<&Srv::send_retries>},
      {"server_dead_peer_drops", kCounter, server_stat<&Srv::dead_peer_drops>},
      {"server_malformed", kCounter, server_stat<&Srv::malformed>},
      {"admission_offered", kCounter, admission_stat<&Adm::offered>},
      {"admission_immediate", kCounter,
       admission_stat<&Adm::admitted_immediate>},
      {"admission_from_queue", kCounter,
       admission_stat<&Adm::admitted_from_queue>},
      {"admission_queued", kCounter, admission_stat<&Adm::queued>},
      {"admission_rejected_full", kCounter,
       admission_stat<&Adm::rejected_full>},
      {"admission_evicted", kCounter, admission_stat<&Adm::evicted>},
      {"admission_departures", kCounter, admission_stat<&Adm::departures>},
      {"admission_first_fit_skips", kCounter,
       admission_stat<&Adm::first_fit_skips>},
      {"admission_tokens_free", kGauge,
       [](const E& e) { return double(e.server().admission().tokens_free()); }},
      {"admission_queue_depth", kGauge,
       [](const E& e) { return double(e.server().admission().queue_depth()); }},
      {"client_issued_high", kCounter, client_stat<kHigh, &Slo::issued>},
      {"client_completed_high", kCounter, client_stat<kHigh, &Slo::completed>},
      {"client_rejected_high", kCounter, client_stat<kHigh, &Slo::rejected>},
      {"client_retries_high", kCounter, client_stat<kHigh, &Slo::retries>},
      {"client_deadline_misses_high", kCounter,
       client_stat<kHigh, &Slo::deadline_misses>},
      {"client_failed_high", kCounter, client_stat<kHigh, &Slo::failed>},
      {"client_goodput_bytes_high", kCounter,
       client_stat<kHigh, &Slo::goodput_bytes>},
      {"client_issued_normal", kCounter, client_stat<kNormal, &Slo::issued>},
      {"client_completed_normal", kCounter,
       client_stat<kNormal, &Slo::completed>},
      {"client_rejected_normal", kCounter,
       client_stat<kNormal, &Slo::rejected>},
      {"client_retries_normal", kCounter, client_stat<kNormal, &Slo::retries>},
      {"client_deadline_misses_normal", kCounter,
       client_stat<kNormal, &Slo::deadline_misses>},
      {"client_failed_normal", kCounter, client_stat<kNormal, &Slo::failed>},
      {"client_goodput_bytes_normal", kCounter,
       client_stat<kNormal, &Slo::goodput_bytes>},
      {"client_issued_bulk", kCounter, client_stat<kBulk, &Slo::issued>},
      {"client_completed_bulk", kCounter, client_stat<kBulk, &Slo::completed>},
      {"client_rejected_bulk", kCounter, client_stat<kBulk, &Slo::rejected>},
      {"client_retries_bulk", kCounter, client_stat<kBulk, &Slo::retries>},
      {"client_deadline_misses_bulk", kCounter,
       client_stat<kBulk, &Slo::deadline_misses>},
      {"client_failed_bulk", kCounter, client_stat<kBulk, &Slo::failed>},
      {"client_goodput_bytes_bulk", kCounter,
       client_stat<kBulk, &Slo::goodput_bytes>},
      {"client_gm_backpressure", kCounter,
       [](const E& e) { return double(e.client().gm_backpressure()); }},
      {"client_pending", kGauge,
       [](const E& e) { return double(e.client().pending()); }},
  };
  return telemetry::make_table("svc", kFields, telemetry::by_host(endpoints));
}

}  // namespace itb::svc
