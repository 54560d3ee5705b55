#include "itb/net/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace itb::net {

std::vector<Network::WormWait> Network::wait_snapshot() const {
  std::vector<WormWait> snap;
  for (const Worm* w = live_head_; w; w = w->live_next) {
    WormWait s;
    s.handle = w->handle;
    s.src_host = w->src_host;
    s.injected_at = w->injected_at;
    s.held.reserve(w->held.size());
    for (const auto slot : w->held)
      s.held.push_back(HeldLane{channel_of(slot), lane_of(slot)});
    if (w->waiting_on) {
      s.blocked = true;
      s.waiting_on = *w->waiting_on;
      s.waiting_lane = w->waiting_lane;
      s.waiting_channel_busy =
          channels_[slot_of(*w->waiting_on, w->waiting_lane)].busy;
      const auto target = channel_target_[channel_index(*w->waiting_on)];
      if (target.node.kind == topo::NodeKind::kHost) {
        const std::uint16_t h = target.node.index;
        const bool fault_gate =
            fault_hook_ && !fault_hook_->host_accepting(h);
        if (!rx_ready_[h] || fault_gate) {
          s.gate_closed = true;
          s.gate_fault = fault_gate;
          s.gate_host = h;
        }
      }
    }
    snap.push_back(std::move(s));
  }
  return snap;
}

std::optional<TxHandle> Network::oldest_blocked() const {
  const Worm* best = nullptr;
  for (const Worm* w = live_head_; w; w = w->live_next) {
    if (!w->waiting_on) continue;
    if (!best || w->injected_at < best->injected_at ||
        (w->injected_at == best->injected_at && w->handle < best->handle))
      best = w;
  }
  if (!best) return std::nullopt;
  return best->handle;
}

bool Network::force_eject(TxHandle h) {
  for (Worm* w = live_head_; w; w = w->live_next) {
    if (w->handle != h) continue;
    const topo::Channel at = w->waiting_on.value_or(
        w->held.empty() ? topo::Channel{} : channel_of(w->held.back()));
    kill_worm(w, at, /*fault=*/false);
    return true;
  }
  return false;
}

std::optional<Network::RxPeek> Network::peek_rx(TxHandle h) const {
  for (const Worm* w = live_head_; w; w = w->live_next) {
    if (w->handle == h && w->tail_time >= 0)
      return RxPeek{&w->bytes, w->tail_time, w->crc_intact};
  }
  return std::nullopt;
}

Network::Network(const topo::Topology& topo, const NetTiming& timing,
                 sim::EventQueue& queue)
    : topo_(topo),
      timing_(timing),
      queue_(queue),
      hooks_(topo.host_count(), nullptr),
      rx_ready_(topo.host_count(), 1),
      channels_(topo.link_count() * 2),
      channel_busy_(topo.link_count() * 2, 0),
      host_out_channel_(topo.host_count(), -1),
      host_in_channel_(topo.host_count(), -1) {
  // Build the dense per-channel caches. The Topology is immutable for the
  // Network's life, so every Topology::link_at scan the hot path used to do
  // per hop collapses into one array read here.
  for (std::size_t s = 0; s < topo_.switch_count(); ++s)
    max_ports_ =
        std::max<std::uint32_t>(max_ports_, topo_.switch_spec(s).ports);
  for (topo::LinkId l = 0; l < topo_.link_count(); ++l) {
    const auto& lk = topo_.link(l);
    max_ports_ = std::max<std::uint32_t>(
        max_ports_, std::uint32_t{std::max(lk.a.port, lk.b.port)} + 1u);
  }
  out_channel_.assign(
      (topo_.switch_count() + topo_.host_count()) * max_ports_, -1);
  channel_target_.resize(topo_.link_count() * 2);
  channel_is_lan_.assign(topo_.link_count() * 2, 0);
  channel_gate_host_.assign(topo_.link_count() * 2, -1);
  for (topo::LinkId l = 0; l < topo_.link_count(); ++l) {
    const auto& lk = topo_.link(l);
    const auto fwd = static_cast<std::int32_t>(2 * l);
    const auto rev = fwd + 1;
    out_channel_[node_slot(lk.a.node) * max_ports_ + lk.a.port] = fwd;
    out_channel_[node_slot(lk.b.node) * max_ports_ + lk.b.port] = rev;
    channel_target_[fwd] = lk.b;
    channel_target_[rev] = lk.a;
    channel_is_lan_[fwd] = channel_is_lan_[rev] =
        lk.kind == topo::PortKind::kLan ? 1 : 0;
    if (lk.a.node.kind == topo::NodeKind::kHost) {
      host_out_channel_[lk.a.node.index] = fwd;
      host_in_channel_[lk.a.node.index] = rev;
      channel_gate_host_[rev] = lk.a.node.index;
    }
    if (lk.b.node.kind == topo::NodeKind::kHost) {
      host_out_channel_[lk.b.node.index] = rev;
      host_in_channel_[lk.b.node.index] = fwd;
      channel_gate_host_[fwd] = lk.b.node.index;
    }
  }
  early_scratch_.reserve(4);
}

Network::~Network() = default;

void Network::attach_host(std::uint16_t host, HostHooks* hooks) {
  if (host >= hooks_.size()) throw std::out_of_range("host out of range");
  if (hooks_[host]) throw std::logic_error("host already attached");
  hooks_[host] = hooks;
}

void Network::set_ladder(const LaneLadder* ladder) {
  if (live_worms_)
    throw std::logic_error("lane ladder change with worms in flight");
  const unsigned lanes = ladder ? ladder->lane_count() : 1;
  if (lanes == 0 || lanes > 255)
    throw std::invalid_argument("lane count must be in [1, 255]");
  // A one-lane ladder keeps the classical hot path: ladder_ stays null and
  // every slot computation folds to the physical channel index.
  ladder_ = lanes > 1 ? ladder : nullptr;
  lanes_ = lanes;
  channels_.assign(topo_.link_count() * 2 * lanes_, ChannelState{});
  lane_busy_.assign(lanes_ > 1 ? topo_.link_count() * 2 * lanes_ : 0, 0);
}

void Network::live_insert(Worm* w) {
  w->live_prev = live_tail_;
  w->live_next = nullptr;
  if (live_tail_)
    live_tail_->live_next = w;
  else
    live_head_ = w;
  live_tail_ = w;
}

void Network::live_remove(Worm* w) {
  if (w->live_prev)
    w->live_prev->live_next = w->live_next;
  else
    live_head_ = w->live_next;
  if (w->live_next)
    w->live_next->live_prev = w->live_prev;
  else
    live_tail_ = w->live_prev;
  w->live_prev = w->live_next = nullptr;
}

void Network::waiter_push(ChannelState& st, Worm* w) {
  w->wait_prev = st.wait_tail;
  w->wait_next = nullptr;
  if (st.wait_tail)
    st.wait_tail->wait_next = w;
  else
    st.wait_head = w;
  st.wait_tail = w;
}

Network::Worm* Network::waiter_pop(ChannelState& st) {
  Worm* w = st.wait_head;
  if (w) waiter_unlink(st, w);
  return w;
}

void Network::waiter_unlink(ChannelState& st, Worm* w) {
  if (w->wait_prev)
    w->wait_prev->wait_next = w->wait_next;
  else
    st.wait_head = w->wait_next;
  if (w->wait_next)
    w->wait_next->wait_prev = w->wait_prev;
  else
    st.wait_tail = w->wait_prev;
  w->wait_prev = w->wait_next = nullptr;
}

TxHandle Network::inject(std::uint16_t host, packet::Bytes bytes,
                         std::optional<sim::Time> data_ready,
                         bool crc_intact) {
  if (host >= hooks_.size() || !hooks_[host])
    throw std::logic_error("inject from unattached host");
  if (bytes.empty()) throw std::invalid_argument("empty packet");
  const std::int32_t entry_idx = host_out_channel_[host];
  if (entry_idx < 0) throw std::logic_error("host has no uplink");

  // The pooled worm may carry recycled state (warm reuse): reset every
  // field. Move-assigning bytes frees nothing — the previous life's buffer
  // was moved out at delivery — and held keeps its capacity.
  auto [self, w] = worm_pool_.acquire();
  w->handle = next_handle_++;
  w->bytes = std::move(bytes);
  w->route_off = 0;
  w->src_host = host;
  w->dst_host = 0;
  w->injected_at = queue_.now();
  w->data_ready_opt = data_ready;
  w->data_ready = 0;
  w->pipe_ns = 0;
  w->orig_len = w->bytes.size();
  w->held.clear();
  w->waiting_on.reset();
  w->waiting_lane = 0;
  w->lane_state = LaneState{};  // every worm starts on lane 0
  w->tail_time = -1;
  w->crc_intact = crc_intact;
  w->rx_started = false;
  w->tx_signaled = false;
  w->done = false;
  w->pending = {};
  w->early_event = {};
  w->src_done_event = {};
  w->self = self;
  live_insert(w);
  ++live_worms_;
  ++stats_.injected;
  if (activity_hook_) activity_hook_();

  if (flight_)
    flight_->record(flight::EventType::kInject, queue_.now(), w->handle, host,
                    w->orig_len);
  const TxHandle handle = w->handle;
  request_channel(w, static_cast<std::uint32_t>(entry_idx) * lanes_);
  return handle;
}

void Network::set_host_rx_ready(std::uint16_t host, bool ready) {
  rx_ready_.at(host) = ready ? 1 : 0;
  // A waiter may have been parked on the (free) channel into this host.
  if (ready) rearbitrate_host(host);
}

void Network::rearbitrate_host(std::uint16_t host) {
  if (host >= host_in_channel_.size()) return;
  const std::int32_t into = host_in_channel_[host];
  if (into < 0) return;
  for (unsigned lane = 0; lane < lanes_; ++lane)
    arbitrate(static_cast<std::uint32_t>(into) * lanes_ + lane);
}

void Network::on_link_state(topo::LinkId link, bool up) {
  for (const bool fwd : {true, false}) {
    const topo::Channel c{link, fwd};
    for (unsigned lane = 0; lane < lanes_; ++lane) {
      const std::uint32_t slot = channel_index(c) * lanes_ + lane;
      auto& st = channels_[slot];
      if (up) {
        arbitrate(slot);
        continue;
      }
      while (Worm* v = waiter_pop(st)) {
        v->waiting_on.reset();
        kill_worm(v, c);
      }
      if (st.busy && st.owner) kill_worm(st.owner, c);
    }
  }
}

void Network::request_channel(Worm* w, std::uint32_t slot) {
  const topo::Channel c = channel_of(slot);
  if (fault_hook_ && !fault_hook_->channel_usable(c)) {
    // The head ran into a dead link: the bytes are gone.
    kill_worm(w, c);
    return;
  }
  auto& st = channels_[slot];
  if (st.busy || gate_closed_idx(phys_of(slot)) || st.wait_head) {
    ++stats_.head_blocks;
    if (flight_)
      // aux is the channel-LANE slot; with one lane it equals the physical
      // channel index the pre-lane recorder wrote.
      flight_->record(flight::EventType::kHeadBlock, queue_.now(), w->handle,
                      w->src_host, slot);
    waiter_push(st, w);
    w->waiting_on = c;
    w->waiting_lane = lane_of(slot);
    return;
  }
  grant_channel(w, slot);
}

void Network::grant_channel(Worm* w, std::uint32_t slot) {
  auto& st = channels_[slot];
  st.busy = true;
  st.busy_since = queue_.now();
  st.owner = w;
  w->waiting_on.reset();
  w->held.push_back(slot);
  if (flight_)
    flight_->record(flight::EventType::kGrant, queue_.now(), w->handle,
                    w->src_host, slot);

  const bool is_entry = w->held.size() == 1;
  if (is_entry) {
    w->data_ready = w->data_ready_opt.value_or(
        queue_.now() + timing_.byte_time(static_cast<std::int64_t>(w->orig_len)));
    hooks_[w->src_host]->on_tx_started(queue_.now(), w->handle);
  }

  // The head crosses the link: propagation plus one byte of transmission.
  sim::Duration hop = timing_.link_latency_ns + timing_.byte_time(1);
  if (lanes_ > 1 && timing_.lane_mux_penalty_ns > 0) {
    // Lane mux cost: another lane of the same physical channel is already
    // streaming, so this head's flits interleave behind it.
    const std::uint32_t base = phys_of(slot) * lanes_;
    for (unsigned l = 0; l < lanes_; ++l)
      if (base + l != slot && channels_[base + l].busy) {
        hop += timing_.lane_mux_penalty_ns;
        break;
      }
  }
  w->pipe_ns += hop;
  const auto arrival = channel_target_[phys_of(slot)];
  w->pending =
      queue_.schedule_in(hop, [this, w, arrival] { head_at_node(w, arrival); });
}

void Network::arbitrate(std::uint32_t slot) {
  auto& st = channels_[slot];
  const topo::Channel c = channel_of(slot);
  if (fault_hook_ && !fault_hook_->channel_usable(c)) {
    while (Worm* v = waiter_pop(st)) {
      v->waiting_on.reset();
      kill_worm(v, c);
    }
    return;
  }
  if (st.busy || !st.wait_head) return;
  if (gate_closed_idx(phys_of(slot))) return;
  Worm* next = waiter_pop(st);
  grant_channel(next, slot);
}

void Network::head_at_node(Worm* w, topo::Endpoint arrival) {
  const sim::Time t = queue_.now();
  if (arrival.node.kind == topo::NodeKind::kHost) {
    complete_at_host(w, arrival.node.index, t);
    return;
  }

  // A switch: consume the leading route byte to pick the output port. The
  // byte is consumed by advancing route_off — the prefix is erased in one
  // step when the head reaches the destination NIC, not per hop.
  if (w->route_off >= w->bytes.size() ||
      !packet::is_route_byte(w->bytes[w->route_off])) {
    drop(w);
    return;
  }
  const std::uint8_t out_port =
      packet::decode_route_byte(w->bytes[w->route_off]);
  ++w->route_off;
  const std::int32_t out_idx = out_channel_idx(arrival.node, out_port);
  if (out_idx < 0) {  // the route byte names a dangling port
    drop(w);
    return;
  }

  // Fall-through latency: base plus the LAN penalty for each LAN port
  // crossed (the incoming link and the outgoing link each count, §5).
  sim::Duration ft = timing_.switch_fallthrough_ns;
  if (channel_is_lan_[phys_of(w->held.back())])
    ft += timing_.lan_port_penalty_ns;
  if (channel_is_lan_[out_idx]) ft += timing_.lan_port_penalty_ns;
  w->pipe_ns += ft;

  if (flight_)
    flight_->record(flight::EventType::kHeadSwitch, t, w->handle,
                    arrival.node.index, 0, out_port);
  // The lane is decided HERE, once per traversal, and captured in the
  // closure: next() advances the worm's ladder state, so re-evaluating it
  // on a grant-after-wait would double-advance the ladder.
  std::uint8_t lane = 0;
  if (lanes_ > 1)
    lane = ladder_->next(
        w->lane_state, channel_from_index(static_cast<std::uint32_t>(out_idx)));
  const std::uint32_t slot =
      static_cast<std::uint32_t>(out_idx) * lanes_ + lane;
  w->pending =
      queue_.schedule_in(ft, [this, w, slot] { request_channel(w, slot); });
}

void Network::complete_at_host(Worm* w, std::uint16_t host,
                               sim::Time head_arrival) {
  HostHooks* hooks = hooks_[host];
  if (!hooks) {  // no NIC attached at the destination
    drop(w);
    return;
  }
  // Shed the route bytes the switches consumed — one erase for the whole
  // path instead of one memmove per hop — before any callback can look.
  if (w->route_off) {
    w->bytes.erase(w->bytes.begin(), w->bytes.begin() + w->route_off);
    w->route_off = 0;
  }
  w->dst_host = host;
  w->rx_started = true;
  if (flight_)
    flight_->record(flight::EventType::kNicEject, head_arrival, w->handle,
                    host);
  hooks->on_rx_head(head_arrival, w->handle);

  const auto len = static_cast<std::int64_t>(w->bytes.size());
  // Early Recv trigger: the LANai raises it when the first 4 bytes are in
  // SRAM (§4). The snapshot is taken when the event fires — the worm is
  // still alive (the tail lands no earlier, and a kill cancels this event)
  // and its bytes are untouched until the tail — so the closure carries no
  // allocation, just the worm pointer.
  const sim::Time early = head_arrival + timing_.byte_time(std::min<std::int64_t>(len, 4) - 1);
  w->early_event = queue_.schedule_at(early, [this, hooks, w] {
    const auto n = std::min<std::size_t>(w->bytes.size(), 4);
    early_scratch_.assign(w->bytes.begin(), w->bytes.begin() + n);
    hooks->on_rx_early_header(queue_.now(), w->handle, early_scratch_);
  });

  // Tail arrival: pipeline behind the head, but never before the source
  // even had the data (virtual cut-through coupling).
  const sim::Time tail = std::max(head_arrival + timing_.byte_time(len - 1),
                                  w->data_ready + w->pipe_ns);
  w->tail_time = tail;
  // The source's last byte departs one pipe latency before the tail lands.
  const sim::Time src_done = std::max(queue_.now(), tail - w->pipe_ns);
  w->src_done_event = queue_.schedule_at(src_done, [this, w] {
    w->tx_signaled = true;
    hooks_[w->src_host]->on_tx_complete(queue_.now(), w->handle);
  });

  w->pending = queue_.schedule_at(tail, [this, w, host, hooks] {
    if (flight_)
      flight_->record(flight::EventType::kTail, queue_.now(), w->handle, host);
    // Fault injection (tests of GM's reliability claims, §3): a faulty
    // network may lose the packet outright or flip a payload bit, which
    // the CRC check at the receiving MCP turns into a discard.
    bool lost = false;
    if (fault_hook_) {
      switch (fault_hook_->delivery_fate(host, w->bytes)) {
        case FaultHook::Fate::kDrop:
          lost = true;
          ++stats_.faults_injected;
          ++stats_.lost;
          break;
        case FaultHook::Fate::kCorrupt:
          ++stats_.faults_injected;
          w->crc_intact = false;  // the receiver must check what arrived
          break;
        case FaultHook::Fate::kDeliver:
          break;
      }
    }
    // A lost packet is never delivered: it counts under lost only.
    if (!lost) ++stats_.delivered;
    WirePacket pkt{w->handle, std::move(w->bytes), w->src_host,
                   w->crc_intact, w->injected_at};
    release_channels(w);
    finish_worm(w);  // recycles w — only locals below
    if (lost) {
      hooks->on_rx_aborted(queue_.now(), pkt.handle);
    } else {
      hooks->on_rx_complete(queue_.now(), std::move(pkt));
    }
  });
}

void Network::release_channels(Worm* w) {
  for (const auto slot : w->held) {
    auto& st = channels_[slot];
    st.busy = false;
    st.owner = nullptr;
    const sim::Duration busy = queue_.now() - st.busy_since;
    channel_busy_[phys_of(slot)] += busy;
    if (!lane_busy_.empty()) lane_busy_[slot] += busy;
  }
  // Grant to waiters only after every channel is marked free; arbitration
  // may kill a waiter (fault window), which releases further channels —
  // never this worm's, so indexed iteration over held stays valid. held is
  // cleared (keeping its capacity) rather than swapped away.
  for (std::size_t i = 0; i < w->held.size(); ++i) arbitrate(w->held[i]);
  w->held.clear();
}

void Network::drop(Worm* w) {
  ++stats_.dropped;
  if (flight_)
    flight_->record(flight::EventType::kDrop, queue_.now(), w->handle,
                    w->src_host);
  w->tx_signaled = true;
  if (hooks_[w->src_host]) hooks_[w->src_host]->on_tx_dropped(queue_.now(), w->handle);
  release_channels(w);
  finish_worm(w);
}

void Network::kill_worm(Worm* w, topo::Channel at, bool fault) {
  if (w->done) return;
  queue_.cancel(w->pending);
  queue_.cancel(w->early_event);
  queue_.cancel(w->src_done_event);
  if (w->waiting_on) {
    waiter_unlink(channels_[slot_of(*w->waiting_on, w->waiting_lane)], w);
    w->waiting_on.reset();
  }
  ++stats_.lost;
  if (flight_)
    flight_->record(fault ? flight::EventType::kLost
                          : flight::EventType::kForceEject,
                    queue_.now(), w->handle, w->src_host, at.link);
  if (fault) {
    ++stats_.faults_injected;
    if (fault_hook_) fault_hook_->note_kill(at);
  }
  const TxHandle handle = w->handle;
  const std::uint16_t src = w->src_host;
  const std::uint16_t dst = w->dst_host;
  const bool notify_tx = !w->tx_signaled;
  const bool notify_rx = w->rx_started;
  w->tx_signaled = true;
  release_channels(w);
  finish_worm(w);  // recycles w — only locals below
  if (notify_tx && hooks_[src]) hooks_[src]->on_tx_dropped(queue_.now(), handle);
  if (notify_rx && hooks_[dst]) hooks_[dst]->on_rx_aborted(queue_.now(), handle);
}

void Network::finish_worm(Worm* w) {
  w->done = true;
  --live_worms_;
  live_remove(w);
  // Return the worm to the pool. Warm recycling keeps the held vector's
  // capacity for the next life; any handle kept past this point goes stale.
  worm_pool_.release(w->self);
}

std::unique_ptr<telemetry::MetricTable> Network::metric_table() const {
  using enum telemetry::MetricKind;
  using telemetry::stat;
  using S = NetworkStats;
  static constexpr telemetry::Field<Network> kFields[] = {
      {"injected", kCounter, stat<Network, &S::injected>},
      {"delivered", kCounter, stat<Network, &S::delivered>},
      {"dropped", kCounter, stat<Network, &S::dropped>},
      {"head_blocks", kCounter, stat<Network, &S::head_blocks>},
      {"faults_injected", kCounter, stat<Network, &S::faults_injected>},
      {"lost", kCounter, stat<Network, &S::lost>},
      {"worm_pool_live", kGauge,
       [](const Network& n) { return double(n.worm_pool_.live()); }},
      {"worm_pool_high_water", kGauge,
       [](const Network& n) { return double(n.worm_pool_.high_water()); }},
      {"worm_pool_capacity", kGauge,
       [](const Network& n) { return double(n.worm_pool_.capacity()); }},
  };
  return telemetry::make_table("net", kFields, *this);
}

std::unique_ptr<telemetry::MetricTable> Network::busy_table(bool lanes) const {
  using D = sim::Duration;
  static constexpr telemetry::Field<D> kChannel[] = {
      {"channel_busy_ns", telemetry::MetricKind::kGauge,
       [](const D& busy) { return double(busy); }}};
  static constexpr telemetry::Field<D> kLane[] = {
      {"lane_busy_ns", telemetry::MetricKind::kGauge,
       [](const D& busy) { return double(busy); }}};
  const auto& busy = lanes ? lane_busy_ : channel_busy_;
  std::vector<telemetry::Instance<D>> instances;
  instances.reserve(busy.size());
  for (std::size_t c = 0; c < busy.size(); ++c)
    instances.push_back({&busy[c], {-1, static_cast<int>(c)}});
  return telemetry::make_table("net", lanes ? kLane : kChannel,
                               std::move(instances));
}

}  // namespace itb::net
