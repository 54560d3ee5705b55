#include "itb/gm/port.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

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

void GmPort::FragmentQueue::push_back(Fragment* f) {
  f->next = nullptr;
  if (tail)
    tail->next = f;
  else
    head = f;
  tail = f;
  ++size;
}

GmPort::Fragment* GmPort::FragmentQueue::pop_front() {
  Fragment* f = head;
  head = f->next;
  if (!head) tail = nullptr;
  f->next = nullptr;
  --size;
  return f;
}

GmPort::TxConn GmPort::fresh_tx() const {
  TxConn conn;
  conn.next_seq = config_.initial_seq;
  conn.highest_acked = config_.initial_seq - 1;
  return conn;
}

GmPort::RxConn GmPort::fresh_rx() const {
  RxConn conn;
  conn.expected_seq = config_.initial_seq;
  return conn;
}

GmPort::TxConn& GmPort::tx_conn(std::uint16_t dst) {
  if (tx_.empty()) tx_.assign(nic_.host_count(), fresh_tx());
  return tx_[dst];
}

GmPort::RxConn& GmPort::rx_conn(std::uint16_t src) {
  if (rx_.empty()) rx_.assign(nic_.host_count(), fresh_rx());
  return rx_[src];
}

GmPort::Fragment* GmPort::new_fragment() {
  auto [h, f] = frags_.acquire();
  f->self = h;
  f->ends_message = false;
  return f;
}

void GmPort::release_fragment(Fragment* f) {
  // The pool recycles slots warm; a payload or callback left in a free
  // slot would stay allocated until the slot's next use.
  f->data = packet::Bytes();
  f->on_sent = nullptr;
  frags_.release(f->self);
}

void GmPort::release_all(FragmentQueue& q) {
  while (!q.empty()) release_fragment(q.pop_front());
}

bool GmPort::send(std::uint16_t dst, packet::Bytes message,
                  SendCallback on_sent) {
  if (dst == nic_.host() || dst >= nic_.host_count())
    throw std::invalid_argument("GM send to its own host or to no host");
  if (tokens_in_use_ >= config_.send_tokens) return false;
  if (message.empty()) throw std::invalid_argument("empty message");
  TxConn& conn = tx_conn(dst);
  if (conn.dead) return false;  // reset_connection() revives
  ++tokens_in_use_;
  ++stats_.messages_sent;
  ++conn.messages;

  const std::uint32_t msg_id = next_msg_id_++;
  const auto msg_len = static_cast<std::uint32_t>(message.size());
  if (auto* fr = nic_.flight_recorder())
    fr->record(flight::EventType::kGmSend, queue_.now(), msg_id, dst, msg_len);

  // Fragment into MTU-sized packets, consecutive sequence numbers. A
  // message that fits one packet moves into its fragment whole.
  Fragment* f = nullptr;
  for (std::size_t offset = 0; offset < msg_len;) {
    const std::size_t n = std::min<std::size_t>(config_.mtu_payload,
                                                msg_len - offset);
    f = new_fragment();
    f->header.subtype = Subtype::kData;
    f->header.src_host = nic_.host();
    f->header.dst_host = dst;
    f->header.seq = conn.next_seq++;
    f->header.msg_id = msg_id;
    f->header.frag_offset = static_cast<std::uint32_t>(offset);
    f->header.msg_len = msg_len;
    f->header.frag_len = static_cast<std::uint16_t>(n);
    if (n == msg_len)
      f->data = std::move(message);
    else
      f->data.assign(message.begin() + static_cast<std::ptrdiff_t>(offset),
                     message.begin() + static_cast<std::ptrdiff_t>(offset + n));
    conn.unsent.push_back(f);
    offset += n;
  }
  f->ends_message = true;
  f->on_sent = std::move(on_sent);

  // gm_send() host-side cost, then the NIC sees the descriptors.
  queue_.schedule_in(config_.host_send_overhead_ns, [this, dst] { pump(dst); });
  return true;
}

bool GmPort::peer_failed(std::uint16_t dst) const {
  return dst < tx_.size() && tx_[dst].dead;
}

void GmPort::reset_connection(std::uint16_t dst) {
  if (dst < tx_.size()) {
    TxConn& conn = tx_[dst];
    if (conn.timer_armed) queue_.cancel(conn.timer);
    tokens_in_use_ -= static_cast<int>(conn.messages);
    release_all(conn.unsent);
    release_all(conn.unacked);
    conn = fresh_tx();
  }
  if (dst < rx_.size()) rx_[dst] = fresh_rx();
}

void GmPort::pump(std::uint16_t dst) {
  TxConn& conn = tx_conn(dst);
  if (conn.dead) return;
  while (!conn.unsent.empty() &&
         conn.unacked.size < static_cast<std::size_t>(config_.window)) {
    Fragment* f = conn.unsent.pop_front();
    post_fragment(*f);
    conn.unacked.push_back(f);
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
  nic_.post_send(f.header.dst_host, encode_header(f.header), f.data);
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
  nic_.post_send(dst, encode_header(h));
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
  for (const Fragment* f = conn.unacked.head; f; f = f->next) {
    ++stats_.retransmissions;
    post_fragment(*f);
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
  release_all(conn.unsent);
  release_all(conn.unacked);
  const std::uint32_t n = std::exchange(conn.messages, 0);
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
  const GmHeader& h = decoded->header;
  if (h.dst_host != nic_.host()) return;  // misrouted
  // A source no host of the network has: no connection to index, no one
  // to acknowledge.
  if (h.src_host >= nic_.host_count()) return;
  if (h.subtype == Subtype::kAck) {
    handle_ack(h);
  } else {
    handle_data(t, h, std::move(payload));
  }
}

void GmPort::handle_ack(const GmHeader& h) {
  if (h.src_host >= tx_.size()) return;  // never sent to anyone
  TxConn& conn = tx_[h.src_host];
  if (conn.dead) return;  // late ack from a peer already written off
  if (seq_leq(h.seq, conn.highest_acked)) return;  // stale
  conn.highest_acked = h.seq;
  conn.backoff = 0;  // progress: restore the base timeout
  FragmentQueue acked;
  while (!conn.unacked.empty() && seq_leq(conn.unacked.head->header.seq, h.seq))
    acked.push_back(conn.unacked.pop_front());

  // Complete messages whose last fragment is now acknowledged.
  while (!acked.empty()) {
    Fragment* f = acked.pop_front();
    if (!f->ends_message) {
      release_fragment(f);
      continue;
    }
    SendCallback on_sent = std::move(f->on_sent);
    release_fragment(f);
    --conn.messages;
    --tokens_in_use_;
    if (on_sent) on_sent(queue_.now());
  }

  if (conn.unacked.empty() && conn.timer_armed) {
    queue_.cancel(conn.timer);
    conn.timer_armed = false;
  }
  pump(h.src_host);
}

void GmPort::handle_data(sim::Time, const GmHeader& h, packet::Bytes payload) {
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

  packet::Bytes message;
  if (h.frag_offset == 0 && h.frag_len == h.msg_len) {
    // The whole message in one packet: the received buffer becomes the
    // message once the GM header is stripped off its front.
    payload.erase(payload.begin(),
                  payload.begin() + static_cast<std::ptrdiff_t>(GmHeader::kSize));
    message = std::move(payload);
  } else {
    // Reassembly. Ordered delivery means fragments of a message arrive
    // consecutively; a fresh msg_id starts a new buffer. decode() bounded
    // the fragment by its msg_len, so sizing the buffer by that msg_len
    // bounds the copy.
    if (conn.buffer.empty() || conn.msg_id != h.msg_id ||
        conn.buffer.size() != h.msg_len) {
      conn.msg_id = h.msg_id;
      conn.buffer.assign(h.msg_len, 0);
      conn.received_bytes = 0;
    }
    std::copy(payload.begin() + static_cast<std::ptrdiff_t>(GmHeader::kSize),
              payload.end(), conn.buffer.begin() + h.frag_offset);
    conn.received_bytes += h.frag_len;
    if (conn.received_bytes < h.msg_len) return;
    message = std::move(conn.buffer);
    conn.buffer.clear();
    conn.received_bytes = 0;
  }
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

std::unique_ptr<telemetry::MetricTable> GmPort::metric_table(
    std::span<const std::unique_ptr<GmPort>> ports) {
  using enum telemetry::MetricKind;
  using telemetry::stat;
  using S = GmStats;
  static constexpr telemetry::Field<GmPort> kFields[] = {
      {"messages_sent", kCounter, stat<GmPort, &S::messages_sent>},
      {"messages_delivered", kCounter, stat<GmPort, &S::messages_delivered>},
      {"packets_data", kCounter, stat<GmPort, &S::packets_data>},
      {"packets_ack", kCounter, stat<GmPort, &S::packets_ack>},
      {"retransmissions", kCounter, stat<GmPort, &S::retransmissions>},
      {"duplicates", kCounter, stat<GmPort, &S::duplicates>},
      {"out_of_order", kCounter, stat<GmPort, &S::out_of_order>},
      {"send_failures", kCounter, stat<GmPort, &S::send_failures>},
      {"messages_failed", kCounter, stat<GmPort, &S::messages_failed>},
      {"packets_unroutable", kCounter, stat<GmPort, &S::packets_unroutable>},
      {"tokens_in_use", kGauge,
       [](const GmPort& p) { return double(p.tokens_in_use()); }},
  };
  return telemetry::make_table("gm", kFields, telemetry::by_host(ports));
}

}  // namespace itb::gm
