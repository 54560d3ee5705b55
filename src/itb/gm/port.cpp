#include "itb/gm/port.hpp"

#include <algorithm>
#include <stdexcept>

namespace itb::gm {
namespace {

// Serial-number (RFC 1982-style) comparison: wrap-safe as long as the live
// sequence numbers of a connection span less than 2^31, which go-back-N
// windows guarantee by orders of magnitude. Plain <= breaks the first time
// a long soak crosses the 2^32 boundary.
constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
constexpr bool seq_leq(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

}  // namespace

GmPort::GmPort(sim::EventQueue& queue, nic::Nic& nic, const GmConfig& config)
    : queue_(queue), nic_(nic), config_(config) {
  nic_.set_client(this);
}

GmPort::TxConn& GmPort::tx_conn(std::uint16_t dst) {
  auto [it, fresh] = tx_.try_emplace(dst);
  if (fresh) {
    it->second.next_seq = config_.initial_seq;
    it->second.highest_acked = config_.initial_seq - 1;
  }
  return it->second;
}

GmPort::RxConn& GmPort::rx_conn(std::uint16_t src) {
  auto [it, fresh] = rx_.try_emplace(src);
  if (fresh) it->second.expected_seq = config_.initial_seq;
  return it->second;
}

bool GmPort::send(std::uint16_t dst, packet::Bytes message,
                  SendCallback on_sent) {
  if (tokens_in_use_ >= config_.send_tokens) return false;
  if (message.empty()) throw std::invalid_argument("empty message");
  TxConn& conn = tx_conn(dst);
  if (conn.dead) return false;  // reset_connection() revives
  ++tokens_in_use_;
  ++stats_.messages_sent;

  const std::uint32_t msg_id = next_msg_id_++;
  const auto msg_len = static_cast<std::uint32_t>(message.size());
  if (auto* fr = nic_.flight_recorder())
    fr->record(flight::EventType::kGmSend, queue_.now(), msg_id, dst, msg_len);

  PendingMessage pm;
  pm.on_sent = std::move(on_sent);
  pm.first_seq = conn.next_seq;

  // Fragment into MTU-sized packets, consecutive sequence numbers.
  std::size_t offset = 0;
  while (offset < message.size()) {
    const std::size_t n = std::min(config_.mtu_payload, message.size() - offset);
    Fragment f;
    f.header.subtype = Subtype::kData;
    f.header.src_host = nic_.host();
    f.header.dst_host = dst;
    f.header.seq = conn.next_seq++;
    f.header.msg_id = msg_id;
    f.header.frag_offset = static_cast<std::uint32_t>(offset);
    f.header.msg_len = msg_len;
    f.data.assign(message.begin() + static_cast<std::ptrdiff_t>(offset),
                  message.begin() + static_cast<std::ptrdiff_t>(offset + n));
    conn.unsent.push_back(std::move(f));
    offset += n;
  }
  pm.last_seq = conn.next_seq - 1;
  conn.messages.push_back(std::move(pm));

  // gm_send() host-side cost, then the NIC sees the descriptors.
  queue_.schedule_in(config_.host_send_overhead_ns, [this, dst] { pump(dst); });
  return true;
}

bool GmPort::peer_failed(std::uint16_t dst) const {
  auto it = tx_.find(dst);
  return it != tx_.end() && it->second.dead;
}

void GmPort::reset_connection(std::uint16_t dst) {
  auto it = tx_.find(dst);
  if (it != tx_.end()) {
    TxConn& conn = it->second;
    if (conn.timer_armed) queue_.cancel(conn.timer);
    tokens_in_use_ -= static_cast<int>(conn.messages.size());
    tx_.erase(it);
  }
  rx_.erase(dst);
}

void GmPort::pump(std::uint16_t dst) {
  TxConn& conn = tx_conn(dst);
  if (conn.dead) return;
  while (!conn.unsent.empty() &&
         conn.unacked.size() < static_cast<std::size_t>(config_.window)) {
    Fragment f = std::move(conn.unsent.front());
    conn.unsent.pop_front();
    post_fragment(f);
    conn.unacked.push_back(std::move(f));
  }
  if (!conn.unacked.empty()) arm_timer(dst);
}

void GmPort::post_fragment(const Fragment& f) {
  if (!nic_.has_route(f.header.dst_host)) {
    // Mid-remap the table may have no route yet; the retransmission timer
    // retries once the mapper downloads a fresh one.
    ++stats_.packets_unroutable;
    return;
  }
  ++stats_.packets_data;
  nic_.post_send(f.header.dst_host, encode(f.header, f.data));
}

void GmPort::send_ack(std::uint16_t dst, std::uint32_t cum_seq) {
  if (!nic_.has_route(dst)) {
    ++stats_.packets_unroutable;  // sender retransmits; we re-ack then
    return;
  }
  GmHeader h;
  h.subtype = Subtype::kAck;
  h.src_host = nic_.host();
  h.dst_host = dst;
  h.seq = cum_seq;
  ++stats_.packets_ack;
  nic_.post_send(dst, encode(h, {}));
}

void GmPort::arm_timer(std::uint16_t dst) {
  TxConn& conn = tx_[dst];
  if (conn.timer_armed) queue_.cancel(conn.timer);
  const int shift = std::min(conn.backoff, 6);
  conn.timer = queue_.schedule_in(config_.retransmit_timeout << shift,
                                  [this, dst] { on_timeout(dst); });
  conn.timer_armed = true;
}

void GmPort::on_timeout(std::uint16_t dst) {
  TxConn& conn = tx_[dst];
  conn.timer_armed = false;
  if (conn.unacked.empty()) return;
  if (config_.max_retries > 0 && conn.backoff >= config_.max_retries) {
    fail_connection(dst);
    return;
  }
  // Go-back-N: re-post everything outstanding.
  for (const Fragment& f : conn.unacked) {
    ++stats_.retransmissions;
    post_fragment(f);
  }
  ++conn.backoff;
  arm_timer(dst);
}

void GmPort::fail_connection(std::uint16_t dst) {
  TxConn& conn = tx_[dst];
  conn.dead = true;
  if (conn.timer_armed) {
    queue_.cancel(conn.timer);
    conn.timer_armed = false;
  }
  conn.unsent.clear();
  conn.unacked.clear();
  std::deque<PendingMessage> failed;
  failed.swap(conn.messages);
  const auto n = static_cast<std::uint32_t>(failed.size());
  tokens_in_use_ -= static_cast<int>(n);  // tokens return to the caller
  ++stats_.send_failures;
  stats_.messages_failed += n;
  if (failure_handler_) failure_handler_(queue_.now(), dst, n);
}

void GmPort::on_message(sim::Time t, packet::PacketType type,
                        packet::Bytes payload) {
  // GM owns the GM and mapping types of the MCP's classification (§4);
  // anything else (e.g. IP) has no host stack here and is dropped.
  if (type != packet::PacketType::kGm && type != packet::PacketType::kMapping)
    return;
  auto decoded = decode(payload);
  if (!decoded) return;  // corrupted: dropped, the sender will retransmit
  if (decoded->header.dst_host != nic_.host()) return;  // misrouted
  if (decoded->header.subtype == Subtype::kAck) {
    handle_ack(decoded->header);
  } else {
    handle_data(t, decoded->header, std::move(decoded->data));
  }
}

void GmPort::handle_ack(const GmHeader& h) {
  auto it = tx_.find(h.src_host);
  if (it == tx_.end()) return;
  TxConn& conn = it->second;
  if (conn.dead) return;  // late ack from a peer already written off
  if (seq_leq(h.seq, conn.highest_acked)) return;  // stale
  conn.highest_acked = h.seq;
  conn.backoff = 0;  // progress: restore the base timeout
  while (!conn.unacked.empty() && seq_leq(conn.unacked.front().header.seq, h.seq))
    conn.unacked.pop_front();

  // Complete messages whose last fragment is now acknowledged.
  while (!conn.messages.empty() && seq_leq(conn.messages.front().last_seq, h.seq)) {
    PendingMessage pm = std::move(conn.messages.front());
    conn.messages.pop_front();
    --tokens_in_use_;
    if (pm.on_sent) pm.on_sent(queue_.now());
  }

  if (conn.unacked.empty() && conn.timer_armed) {
    queue_.cancel(conn.timer);
    conn.timer_armed = false;
  }
  pump(h.src_host);
}

void GmPort::handle_data(sim::Time, const GmHeader& h, packet::Bytes data) {
  RxConn& conn = rx_conn(h.src_host);
  if (seq_lt(h.seq, conn.expected_seq)) {
    // Duplicate of something already delivered: re-ack so the sender
    // advances past a lost acknowledgement.
    ++stats_.duplicates;
    send_ack(h.src_host, conn.expected_seq - 1);
    return;
  }
  if (h.seq != conn.expected_seq) {
    // Gap: go-back-N receivers drop out-of-order packets and re-ack the
    // last in-order one.
    ++stats_.out_of_order;
    send_ack(h.src_host, conn.expected_seq - 1);
    return;
  }
  conn.expected_seq = h.seq + 1;
  send_ack(h.src_host, h.seq);

  // Reassembly. Ordered delivery means fragments of a message arrive
  // consecutively; a fresh msg_id starts a new buffer.
  if (conn.buffer.empty() || conn.msg_id != h.msg_id) {
    conn.msg_id = h.msg_id;
    conn.buffer.assign(h.msg_len, 0);
    conn.received_bytes = 0;
  }
  std::copy(data.begin(), data.end(),
            conn.buffer.begin() + h.frag_offset);
  conn.received_bytes += data.size();
  if (conn.received_bytes < h.msg_len) return;

  packet::Bytes message = std::move(conn.buffer);
  conn.buffer.clear();
  conn.received_bytes = 0;
  ++stats_.messages_delivered;
  if (auto* fr = nic_.flight_recorder())
    fr->record(flight::EventType::kGmDeliver, queue_.now(), h.msg_id,
               h.src_host, h.msg_len);
  const std::uint16_t src = h.src_host;
  // Host-side callback dispatch cost.
  queue_.schedule_in(config_.host_recv_overhead_ns,
                     [this, src, message = std::move(message)]() mutable {
                       if (handler_) handler_(queue_.now(), src,
                                              std::move(message));
                     });
}

void GmPort::on_send_complete(sim::Time, std::uint64_t) {
  // NIC-level completion: the SRAM buffer is free. GM tokens return on
  // acknowledgement instead (reliable semantics), so nothing to do.
}

void GmPort::register_metrics(telemetry::MetricRegistry& registry) const {
  const telemetry::Labels labels{.host = nic_.host(), .channel = -1};
  auto source = [&registry, labels](const char* name,
                                    const std::uint64_t& field) {
    registry.register_source("gm", name, telemetry::MetricKind::kCounter,
                             [&field] { return static_cast<double>(field); },
                             labels);
  };
  source("messages_sent", stats_.messages_sent);
  source("messages_delivered", stats_.messages_delivered);
  source("packets_data", stats_.packets_data);
  source("packets_ack", stats_.packets_ack);
  source("retransmissions", stats_.retransmissions);
  source("duplicates", stats_.duplicates);
  source("out_of_order", stats_.out_of_order);
  source("send_failures", stats_.send_failures);
  source("messages_failed", stats_.messages_failed);
  source("packets_unroutable", stats_.packets_unroutable);
  registry.register_source(
      "gm", "tokens_in_use", telemetry::MetricKind::kGauge,
      [this] { return static_cast<double>(tokens_in_use_); }, labels);
}

}  // namespace itb::gm
