#include "itb/nic/nic.hpp"

#include <stdexcept>

namespace itb::nic {

Nic::Nic(sim::EventQueue& queue, net::Network& network, host::PciBus& pci,
         std::uint16_t host, const LanaiTiming& timing,
         const McpOptions& options)
    : queue_(queue),
      network_(network),
      pci_(pci),
      host_(host),
      timing_(timing),
      options_(options),
      cpu_(queue, timing) {
  network_.attach_host(host, this);
}

void Nic::set_route(std::uint16_t dst,
                    const std::vector<packet::Route>& segments) {
  if (dst >= host_count()) throw std::out_of_range("destination host");
  auto row = std::make_shared<routing::RouteRow>();
  for (std::uint16_t d = 0; d < host_count(); ++d) {
    if (d == dst)
      row->add(segments);
    else
      row->add(route(d));
  }
  routes_ = std::move(row);
}

void Nic::load_routes(const routing::RouteTable& table) {
  routes_ = table.row(host_);
  route_epoch_ = table.epoch();
}

void Nic::load_routes(std::shared_ptr<const routing::RouteRow> row) {
  routes_ = std::move(row);
}

std::uint64_t Nic::post_send(std::uint16_t dst,
                             std::span<const std::uint8_t> header,
                             std::span<const std::uint8_t> data,
                             packet::PacketType type) {
  if (dst == host_) throw std::invalid_argument("loopback send not supported");
  if (header.size() + data.size() > kMtu)
    throw std::invalid_argument("payload exceeds MTU");
  if (dst >= host_count()) throw std::out_of_range("destination host");
  if (!has_route(dst))
    throw std::logic_error("no route to host " + std::to_string(dst));
  const std::uint64_t token = next_token_++;
  if (auto* fr = network_.flight_recorder())
    fr->record(flight::EventType::kSendPost, queue_.now(), token, host_, token,
               static_cast<std::uint8_t>(type));
  auto [h, ps] = send_pool_.acquire();
  ps->token = token;
  ps->dst = dst;
  ps->type = type;
  ps->epoch = route_epoch_;
  ps->payload.assign(header.begin(), header.end());
  ps->payload.insert(ps->payload.end(), data.begin(), data.end());
  host_queue_.push_back(h);
  sdma_pump();
  return token;
}

void Nic::sdma_pump() {
  // SRAM send buffers in use: filled-and-waiting, being filled by the host
  // DMA, and the one the send DMA is draining.
  const int occupied = static_cast<int>(ready_buffers_.size()) +
                       sdma_in_flight_ + (send_dma_busy_ ? 1 : 0);
  if (host_queue_.empty() || occupied >= options_.send_buffers) return;

  ++sdma_in_flight_;
  const sim::PoolHandle h = host_queue_.take_front();
  cpu_.post(McpPriority::kSdma, timing_.sdma_process, [this, h] {
    const auto bytes =
        static_cast<std::int64_t>(send_pool_.get(h)->payload.size());
    pci_.dma(bytes, [this, h] {
      --sdma_in_flight_;
      ready_buffers_.push_back(h);
      send_pump();
      sdma_pump();
    });
  });
}

void Nic::set_send_dma(bool busy) {
  if (busy == send_dma_busy_) return;
  if (busy)
    send_dma_since_ = queue_.now();
  else
    send_dma_busy_ns_ += queue_.now() - send_dma_since_;
  send_dma_busy_ = busy;
}

bool Nic::release_send_dma() {
  set_send_dma(false);
  if (itb_pending_.empty()) {
    send_pump();
    return false;
  }
  // Pending ITB packets beat normal sends (Fig. 5, high priority).
  const auto next = itb_pending_.take_front();
  set_send_dma(true);
  cpu_.post(McpPriority::kItbPendingSend, timing_.itb_program_send,
            [this, next] { start_reinjection(next); });
  return true;
}

sim::Duration Nic::send_dma_busy_ns() const {
  return send_dma_busy_ns_ +
         (send_dma_busy_ ? queue_.now() - send_dma_since_ : 0);
}

sim::Duration Nic::rx_busy_ns() const {
  return rx_busy_ns_ + (rx_reserved_ > 0 ? queue_.now() - rx_busy_since_ : 0);
}

std::unique_ptr<telemetry::MetricTable> Nic::metric_table(
    std::span<const std::unique_ptr<Nic>> nics) {
  using enum telemetry::MetricKind;
  using telemetry::stat;
  using S = NicStats;
  static constexpr telemetry::Field<Nic> kFields[] = {
      {"sent", kCounter, stat<Nic, &S::sent>},
      {"received", kCounter, stat<Nic, &S::received>},
      {"delivered_to_host", kCounter, stat<Nic, &S::delivered_to_host>},
      {"itb_forwarded", kCounter, stat<Nic, &S::itb_forwarded>},
      {"itb_pending_hits", kCounter, stat<Nic, &S::itb_pending_hits>},
      {"dropped_no_buffer", kCounter, stat<Nic, &S::dropped_no_buffer>},
      {"dropped_unroutable", kCounter, stat<Nic, &S::dropped_unroutable>},
      {"resourced_sends", kCounter, stat<Nic, &S::resourced_sends>},
      {"rx_unknown_type", kCounter, stat<Nic, &S::rx_unknown_type>},
      {"rx_bad_crc", kCounter, stat<Nic, &S::rx_bad_crc>},
      {"rx_aborted", kCounter, stat<Nic, &S::rx_aborted>},
      {"mcp_busy_ns", kGauge,
       [](const Nic& n) { return double(n.cpu_.busy_ns()); }},
      {"mcp_jobs", kCounter,
       [](const Nic& n) { return double(n.cpu_.jobs_executed()); }},
      {"send_dma_busy_ns", kGauge,
       [](const Nic& n) { return double(n.send_dma_busy_ns()); }},
      {"rx_busy_ns", kGauge,
       [](const Nic& n) { return double(n.rx_busy_ns()); }},
      {"send_pool_high_water", kGauge,
       [](const Nic& n) { return double(n.send_pool_.high_water()); }},
      // Every worm is injected on lane 0; the row stays for the schema.
      {"injection_lane", kGauge, [](const Nic&) { return 0.0; }},
  };
  return telemetry::make_table("nic", kFields, telemetry::by_host(nics));
}

std::unique_ptr<telemetry::MetricTable> Nic::pending_table(
    std::span<const std::unique_ptr<Nic>> nics) {
  static constexpr telemetry::Field<Nic> kFields[] = {
      {"itb_pending_depth", telemetry::MetricKind::kGauge,
       [](const Nic& n) { return double(n.itb_pending_depth()); }}};
  return telemetry::make_table("nic", kFields, telemetry::by_host(nics));
}

void Nic::send_pump() {
  if (send_dma_busy_ || ready_buffers_.empty()) return;
  set_send_dma(true);
  const sim::PoolHandle sh = ready_buffers_.take_front();
  cpu_.post(McpPriority::kHostRequest, timing_.send_process, [this, sh] {
    PostedSend& ps = *send_pool_.get(sh);
    if (!has_route(ps.dst)) {
      // post_send checked the route, but tables hot-swap on remap: a window
      // that disconnects ps.dst empties its route while the send sits in
      // the SRAM pipeline. If the table epoch moved since the send was
      // admitted, the swap itself may be why — re-queue it once against the
      // new epoch (the route may only LOOK empty because a newer table
      // already replaced the one it was checked against). Only a send that
      // is unroutable at the CURRENT epoch is dropped; GM's retransmission
      // timer then re-posts once a later remap restores a route (or
      // declares the peer dead after max_retries).
      if (ps.epoch != route_epoch_) {
        ps.epoch = route_epoch_;
        ++stats_.resourced_sends;
        host_queue_.push_back(sh);
      } else {
        send_pool_.release(sh);
        ++stats_.dropped_unroutable;
      }
      if (!release_send_dma()) sdma_pump();
      return;
    }
    // The row holds the ready Fig. 3b header in two parts, the bytes the
    // destination switch's hosts share and this host's final route byte:
    // stamp both, then Type, payload and CRC, into one wire buffer. The
    // CRC's only reader is a receiver's check of bytes a fault hook may
    // have touched, so without a hook its byte is left 0.
    auto bytes = packet::frame(route(ps.dst).header(), ps.type, ps.payload,
                               /*crc=*/network_.has_fault_hook());
    const std::uint64_t token = ps.token;
    send_pool_.release(sh);  // payload consumed; buffer recycles warm
    queue_.schedule_in(timing_.cycles(timing_.send_dma_start),
                       [this, token, bytes = std::move(bytes)]() mutable {
                         const auto h = network_.inject(
                             host_, std::move(bytes), std::nullopt,
                             /*crc_intact=*/true);
                         tx_live_.push_back(TxRec{h, token, 0, false});
                         if (auto* fr = network_.flight_recorder())
                           fr->record(flight::EventType::kTxBind, queue_.now(),
                                      h, host_, token);
                         ++stats_.sent;
                       });
  });
}

// --------------------------------------------------------------- receive --

Nic::TxRec* Nic::find_tx(net::TxHandle h) {
  for (TxRec& r : tx_live_)
    if (r.handle == h) return &r;
  return nullptr;
}

void Nic::erase_tx(TxRec* rec) {
  if (rec != &tx_live_.back()) *rec = std::move(tx_live_.back());
  tx_live_.pop_back();
}

Nic::RxRec* Nic::find_rx(net::TxHandle h) {
  for (RxRec& r : rx_recs_)
    if (r.handle == h) return &r;
  return nullptr;
}

Nic::RxRec& Nic::rx_rec(net::TxHandle h) {
  if (RxRec* r = find_rx(h)) return *r;
  rx_recs_.emplace_back();
  rx_recs_.back().handle = h;
  return rx_recs_.back();
}

void Nic::erase_rx(RxRec* rec) {
  if (rec != &rx_recs_.back()) *rec = std::move(rx_recs_.back());
  rx_recs_.pop_back();
}

void Nic::on_rx_head(sim::Time t, net::TxHandle h) {
  if (rx_reserved_ >= options_.recv_buffers) {
    // Only reachable in drop_when_full mode: with backpressure the network
    // never grants the final channel while we are out of buffers.
    rx_rec(h).doomed = true;
    return;
  }
  if (rx_reserved_++ == 0) rx_busy_since_ = t;
  if (!options_.drop_when_full && rx_reserved_ >= options_.recv_buffers)
    network_.set_host_rx_ready(host_, false);
}

void Nic::on_rx_early_header(sim::Time t, net::TxHandle h,
                             const packet::Bytes& head4) {
  if (!options_.itb_support || !options_.early_recv) return;
  if (RxRec* r = find_rx(h); r && r->doomed) return;

  // The LANai raised the Early Recv Packet event; its handler probes the
  // type field — only the 2-byte type fits in the 4-byte snapshot. The
  // claim is recorded immediately (simulator bookkeeping); the cost lands
  // on the MCP CPU.
  auto type = packet::peek_type(head4);
  const bool is_itb = type == packet::PacketType::kItb;
  if (is_itb) rx_rec(h).claimed = true;
  if (auto* fr = network_.flight_recorder())
    fr->record(flight::EventType::kEarlyRecv, t, h, host_, 0, is_itb ? 1 : 0);

  cpu_.post(McpPriority::kEarlyRecv, timing_.early_recv_check, [this, h,
                                                                is_itb] {
    if (!is_itb) return;  // normal packet: resume normal dispatching
    if (send_dma_busy_) {
      // "ITB packet pending" flag: serviced at send completion (Fig. 5).
      ++stats_.itb_pending_hits;
      itb_pending_.push_back(h);
      return;
    }
    set_send_dma(true);
    if (options_.recv_side_reinjection) {
      // The Recv machine programs the send DMA itself, skipping one
      // dispatching cycle (Fig. 4, dashed lines).
      cpu_.post(McpPriority::kEarlyRecv, timing_.itb_program_send,
                [this, h] { start_reinjection(h); }, /*skip_dispatch=*/true);
    } else {
      cpu_.post(McpPriority::kItbPendingSend, timing_.itb_program_send,
                [this, h] { start_reinjection(h); });
    }
  });
}

void Nic::start_reinjection(net::TxHandle h) {
  if (auto* fr = network_.flight_recorder())
    fr->record(flight::EventType::kItbDmaStart, queue_.now(), h, host_);
  // Packet content: still streaming in (peek) or fully received (stash).
  packet::Bytes stripped;
  sim::Time data_ready;
  RxRec* rec = find_rx(h);
  if (rec && rec->stashed) {
    // Fully received: the stashed wire buffer itself is re-injected.
    stripped = packet::strip_itb_stage(std::move(rec->stash.bytes));
    data_ready = queue_.now();
    rec->stashed = false;
  } else if (auto peek = network_.peek_rx(h)) {
    // Still arriving (cut-through): the network owns the bytes until the
    // tail lands, so the re-injection streams from a copy.
    stripped = packet::strip_itb_stage(*peek->bytes);
    data_ready = peek->tail_time;
    rec->stash.crc_intact = peek->crc_intact;
  } else {
    // The packet was lost (fault injection) between detection and DMA
    // programming; on_rx_aborted already released its receive buffer (and
    // erased the record). Release the send DMA and resume normal service.
    release_send_dma();
    return;
  }
  // The reception is live (stash or peek succeeded), so its record is too.
  rec->injected = true;
  ++stats_.itb_forwarded;
  // Stripping the ITB stage leaves the CRC, which covers only the body,
  // as valid as it came; the bit waits in the record, which the
  // re-injection keeps alive, so the closure stays inline.
  queue_.schedule_in(
      timing_.cycles(timing_.send_dma_start),
      [this, h, data_ready, stripped = std::move(stripped)]() mutable {
        const RxRec* rec = find_rx(h);
        const auto nh = network_.inject(host_, std::move(stripped), data_ready,
                                        rec && rec->stash.crc_intact);
        tx_live_.push_back(TxRec{nh, 0, h, true});
        if (auto* fr = network_.flight_recorder())
          fr->record(flight::EventType::kReinject, queue_.now(), nh, host_, h);
      });
}

void Nic::on_rx_complete(sim::Time, net::WirePacket packet) {
  ++stats_.received;
  const auto h = packet.handle;

  if (RxRec* r = find_rx(h)) {
    if (r->doomed) {
      erase_rx(r);
      ++stats_.dropped_no_buffer;
      return;
    }
    // Claimed (or queued) by the Early Recv path. Keep the bytes around if
    // the re-injection has not started yet; the receive buffer stays in
    // use until the re-injection's send completes.
    if (!r->injected) {
      r->stash = std::move(packet);
      r->stashed = true;
    }
    return;
  }

  const int cost =
      timing_.recv_process + (options_.itb_support ? timing_.itb_recv_extra : 0);
  cpu_.post(McpPriority::kRecvComplete, cost,
            [this, packet = std::move(packet)]() mutable {
              auto head = packet::parse_head(packet.bytes);
              if (!head) {
                ++stats_.rx_unknown_type;
                free_recv_buffer();
                return;
              }
              if (head->type == packet::PacketType::kItb) {
                if (!options_.itb_support) {
                  // The original MCP has no idea what an ITB packet is.
                  ++stats_.rx_unknown_type;
                  free_recv_buffer();
                  return;
                }
                // Late detection (early_recv ablation): forward from the
                // fully received buffer. Stands in for Early Recv in the
                // flight timeline (detail=2) so ITB hops still stitch.
                const auto h = packet.handle;
                if (auto* fr = network_.flight_recorder())
                  fr->record(flight::EventType::kEarlyRecv, queue_.now(), h,
                             host_, 0, 2);
                RxRec& rec = rx_rec(h);
                rec.claimed = true;
                rec.stash = std::move(packet);
                rec.stashed = true;
                if (send_dma_busy_) {
                  ++stats_.itb_pending_hits;
                  itb_pending_.push_back(h);
                } else {
                  set_send_dma(true);
                  cpu_.post(McpPriority::kItbPendingSend,
                            timing_.itb_program_send,
                            [this, h] { start_reinjection(h); });
                }
                return;
              }
              // The interface checks the packet CRC before handing the
              // payload to the host; a corrupted packet is discarded and
              // GM's retransmission recovers it. Bytes nothing touched
              // since their sender framed them pass unchecked (their
              // sender computed no CRC unless a fault hook could touch
              // them); the check's cycles are charged either way.
              if (!packet.crc_intact && !packet::verify_crc(packet.bytes)) {
                ++stats_.rx_bad_crc;
                free_recv_buffer();
                return;
              }
              // Normal packet: RDMA the payload into host memory. The wire
              // buffer becomes the payload in place: drop the CRC and the
              // type bytes.
              packet::Bytes payload = std::move(packet.bytes);
              payload.pop_back();
              payload.erase(payload.begin(),
                            payload.begin() + static_cast<std::ptrdiff_t>(
                                                  head->payload_offset));
              const auto type = head->type;
              const auto h = packet.handle;
              pci_.dma(static_cast<std::int64_t>(payload.size()),
                       [this, type, h, payload = std::move(payload)]() mutable {
                         cpu_.post(McpPriority::kRdmaComplete,
                                   timing_.rdma_complete,
                                   [this, type, h,
                                    payload = std::move(payload)]() mutable {
                                     ++stats_.delivered_to_host;
                                     if (auto* fr = network_.flight_recorder())
                                       fr->record(flight::EventType::kDeliver,
                                                  queue_.now(), h, host_);
                                     if (client_)
                                       client_->on_message(queue_.now(), type,
                                                           std::move(payload));
                                     free_recv_buffer();
                                   });
                       });
            });
}

void Nic::free_recv_buffer() {
  if (--rx_reserved_ == 0) rx_busy_ns_ += queue_.now() - rx_busy_since_;
  network_.set_host_rx_ready(host_, true);
}

bool Nic::enable_drop_when_full() {
  if (options_.drop_when_full) return false;
  options_.drop_when_full = true;
  // Reopen the gate: a parked worm is granted the channel into this host
  // and its arrival, finding no free buffer, is doomed in on_rx_head —
  // exactly the circular-pool discard the paper's §4 relies on.
  network_.set_host_rx_ready(host_, true);
  return true;
}

// ------------------------------------------------------------------ send --

void Nic::on_tx_started(sim::Time, net::TxHandle) {}

void Nic::on_tx_complete(sim::Time, net::TxHandle h) {
  cpu_.post(McpPriority::kSendComplete, timing_.send_complete, [this, h] {
    if (TxRec* tx = find_tx(h)) {
      if (tx->is_reinject) {
        const auto orig = tx->reinject_of;
        erase_tx(tx);
        if (RxRec* r = find_rx(orig)) erase_rx(r);
        free_recv_buffer();  // the ITB packet's receive buffer
      } else {
        const auto token = tx->token;
        erase_tx(tx);
        if (client_) client_->on_send_complete(queue_.now(), token);
      }
    }
    release_send_dma();
    sdma_pump();
  });
}

void Nic::on_rx_aborted(sim::Time, net::TxHandle h) {
  ++stats_.rx_aborted;
  RxRec* r = find_rx(h);
  if (r && r->doomed) {  // no buffer was reserved
    erase_rx(r);
    return;
  }
  if (r && r->injected) return;  // re-injection owns the buffer now
  if (r) erase_rx(r);
  itb_pending_.erase_value(h);
  free_recv_buffer();
}

void Nic::on_tx_dropped(sim::Time, net::TxHandle h) {
  // Clean up bookkeeping for a transmission the network discarded.
  cpu_.post(McpPriority::kSendComplete, timing_.send_complete, [this, h] {
    if (TxRec* tx = find_tx(h)) {
      if (tx->is_reinject) {
        const auto orig = tx->reinject_of;
        erase_tx(tx);
        if (RxRec* r = find_rx(orig)) erase_rx(r);
        free_recv_buffer();
      } else {
        erase_tx(tx);
      }
    }
    release_send_dma();
    sdma_pump();
  });
}

}  // namespace itb::nic
