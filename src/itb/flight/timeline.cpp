#include "itb/flight/timeline.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>

namespace itb::flight {

void StageBreakdown::add(const StageBreakdown& o) {
  host_tx += o.host_tx;
  inject_wait += o.inject_wait;
  queueing += o.queueing;
  wire += o.wire;
  itb_detect += o.itb_detect;
  itb_wait += o.itb_wait;
  itb_dma += o.itb_dma;
  stream += o.stream;
  delivery += o.delivery;
}

const std::vector<StageView>& stage_views() {
  static const std::vector<StageView> views = {
      {"host_tx", &StageBreakdown::host_tx},
      {"inject_wait", &StageBreakdown::inject_wait},
      {"queueing", &StageBreakdown::queueing},
      {"wire", &StageBreakdown::wire},
      {"itb_detect", &StageBreakdown::itb_detect},
      {"itb_wait", &StageBreakdown::itb_wait},
      {"itb_dma", &StageBreakdown::itb_dma},
      {"stream", &StageBreakdown::stream},
      {"delivery", &StageBreakdown::delivery},
  };
  return views;
}

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kDelivered: return "delivered";
    case Outcome::kDropped: return "dropped";
    case Outcome::kLost: return "lost";
    case Outcome::kForceEjected: return "force-ejected";
    case Outcome::kInFlight: return "in-flight";
  }
  return "?";
}

namespace {

/// Events of one transmission handle, in stream order.
struct Segment {
  std::vector<const FlightEvent*> events;
  std::uint64_t child = 0;       // reinjection continuing this transmission
  bool is_reinjection = false;   // some kReinject names it as the new handle
};

const FlightEvent* find(const Segment& s, EventType t) {
  for (const auto* e : s.events)
    if (e->type == t) return e;
  return nullptr;
}

}  // namespace

WormTimeline::WormTimeline(const Recording& recording) {
  // --- index the stream -------------------------------------------------
  std::unordered_map<std::uint64_t, Segment> segments;
  // (host, token) -> send-post time; tokens are per-NIC.
  std::map<std::pair<std::uint16_t, std::uint64_t>, sim::Time> send_posts;
  std::vector<std::uint64_t> order;  // handles in first-seen stream order

  for (const auto& e : recording.events) {
    switch (e.type) {
      case EventType::kSendPost:
        send_posts[{e.node, e.aux}] = e.t;
        continue;
      case EventType::kGmSend:
      case EventType::kGmDeliver:
        continue;  // message-level markers; not part of packet journeys
      case EventType::kReinject: {
        auto [it, fresh] = segments.try_emplace(e.handle);
        if (fresh) order.push_back(e.handle);
        it->second.is_reinjection = true;
        segments[e.aux].child = e.handle;
        continue;
      }
      default:
        break;
    }
    auto [it, fresh] = segments.try_emplace(e.handle);
    if (fresh) order.push_back(e.handle);
    it->second.events.push_back(&e);
  }

  // --- walk each chain from its root ------------------------------------
  for (const std::uint64_t root : order) {
    const Segment& root_seg = segments.at(root);
    if (root_seg.is_reinjection) continue;  // continues an earlier journey

    Journey j;
    j.root = root;
    bool have_start = false;

    for (std::uint64_t h = root; h != 0;) {
      const Segment& seg = segments.at(h);
      j.segments.push_back(h);
      const Segment* child =
          seg.child ? &segments.at(seg.child) : nullptr;

      const FlightEvent* inject = find(seg, EventType::kInject);
      const FlightEvent* eject = find(seg, EventType::kNicEject);
      const FlightEvent* tail = find(seg, EventType::kTail);

      if (h == root) {
        if (inject) {
          j.src = inject->node;
          j.wire_bytes = inject->aux;
          // Prefer the host posting instant; inject-only packets (mapper
          // probes, evicted posts) start on the wire.
          const FlightEvent* bind = find(seg, EventType::kTxBind);
          if (bind) {
            auto it = send_posts.find({bind->node, bind->aux});
            if (it != send_posts.end()) {
              j.start = it->second;
              j.stages.host_tx = inject->t - it->second;
              have_start = true;
            }
          }
          if (!have_start) {
            j.start = inject->t;
            have_start = true;
          }
        } else if (!seg.events.empty()) {
          j.start = seg.events.front()->t;
          j.truncated = true;
          have_start = true;
        }
      } else if (!inject) {
        j.truncated = true;
      }

      // Channel waits: blocks alternate with the grant that ends them. The
      // entry block's closing grant is the segment's first grant, already
      // covered by inject_wait.
      sim::Time first_grant = -1;
      sim::Duration seg_queueing = 0;
      const FlightEvent* pending_block = nullptr;
      for (const auto* e : seg.events) {
        if (e->type == EventType::kHeadBlock) {
          pending_block = e;
        } else if (e->type == EventType::kGrant) {
          if (first_grant < 0)
            first_grant = e->t;
          else if (pending_block)
            seg_queueing += e->t - pending_block->t;
          pending_block = nullptr;
        }
      }
      if (inject && first_grant >= 0)
        j.stages.inject_wait += first_grant - inject->t;
      else if (!inject)
        j.truncated = true;
      j.stages.queueing += seg_queueing;
      if (eject) {
        j.dst = eject->node;
        if (first_grant >= 0)
          j.stages.wire += (eject->t - first_grant) - seg_queueing;
        else
          j.truncated = true;
      }

      if (child) {
        // ITB hop: eject -> Early Recv -> DMA programming -> re-injection.
        const FlightEvent* early = find(seg, EventType::kEarlyRecv);
        const FlightEvent* dma = find(seg, EventType::kItbDmaStart);
        const FlightEvent* next_inject = find(*child, EventType::kInject);
        if (eject && early && dma && next_inject) {
          j.stages.itb_detect += early->t - eject->t;
          j.stages.itb_wait += dma->t - early->t;
          j.stages.itb_dma += next_inject->t - dma->t;
          j.itb_hops.push_back(ItbHop{eject->node, eject->t, early->t,
                                      dma->t, next_inject->t});
        } else {
          j.truncated = true;
        }
        h = seg.child;
        continue;
      }

      // Final segment: streaming tail, then delivery or a terminal fate.
      const FlightEvent* deliver = find(seg, EventType::kDeliver);
      const FlightEvent* terminal = nullptr;
      for (const auto* e : seg.events) {
        if (e->type == EventType::kDrop || e->type == EventType::kLost ||
            e->type == EventType::kForceEject)
          terminal = e;
      }
      if (eject && tail) j.stages.stream += tail->t - eject->t;
      if (deliver) {
        if (tail) j.stages.delivery += deliver->t - tail->t;
        j.end = deliver->t;
        j.outcome = Outcome::kDelivered;
        j.complete = !j.truncated && inject && eject && tail &&
                     j.stages.inject_wait >= 0;
      } else if (terminal) {
        j.end = terminal->t;
        j.outcome = terminal->type == EventType::kDrop ? Outcome::kDropped
                    : terminal->type == EventType::kLost
                        ? Outcome::kLost
                        : Outcome::kForceEjected;
      } else {
        j.end = seg.events.empty() ? j.start : seg.events.back()->t;
        j.outcome = Outcome::kInFlight;
      }
      h = 0;
    }

    if (!have_start) continue;  // reinject bookkeeping only, nothing to show
    if (j.complete) {
      ++complete_;
      totals_.add(j.stages);
      const sim::Duration residual =
          std::llabs(j.stages.total() - (j.end - j.start));
      max_residual_ = std::max(max_residual_, residual);
    }
    journeys_.push_back(std::move(j));
  }
}

WormTimeline::ItbHopSplit WormTimeline::itb_hop_split() const {
  ItbHopSplit s;
  for (const auto& j : journeys_)
    for (const auto& hop : j.itb_hops) {
      ++s.hops;
      s.detect_ns += static_cast<double>(hop.early - hop.eject);
      s.wait_ns += static_cast<double>(hop.dma_start - hop.early);
      s.dma_ns += static_cast<double>(hop.reinject - hop.dma_start);
    }
  if (s.hops > 0) {
    s.detect_ns /= static_cast<double>(s.hops);
    s.wait_ns /= static_cast<double>(s.hops);
    s.dma_ns /= static_cast<double>(s.hops);
  }
  return s;
}

}  // namespace itb::flight
