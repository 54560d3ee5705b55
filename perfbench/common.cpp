#include "common.hpp"

#include <cstdio>

#include "itb/sim/alloc_hook.hpp"

namespace perfbench {

std::vector<std::int64_t> SpanLog::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%lld}}\n",
                 i ? "," : "", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<int>(s.parent), static_cast<long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Digest::add(const telemetry::LatencyHistogram& h) {
  add(h.count());
  add(h.min());
  add(h.max());
  for (const auto& b : h.nonzero_buckets()) {
    add(b.lo);
    add(b.count);
  }
}

LayerSnapshot snapshot(core::Cluster& cluster) {
  LayerSnapshot s;
  s.queue = cluster.queue().stats();
  auto& net = cluster.network();
  s.net = net.stats();
  const auto lanes = net.lane_count();
  const auto& busy = net.lane_busy_ns();
  for (std::size_t slot = 0; slot < busy.size(); ++slot) {
    const auto ns = static_cast<std::uint64_t>(busy[slot]);
    s.lane_busy_ns += ns;
    if (slot % lanes != 0) s.escape_busy_ns += ns;
  }
  for (std::uint16_t h = 0; h < cluster.host_count(); ++h) {
    const auto& nic = cluster.nic(h);
    const auto& ns = nic.stats();
    s.nic_sent += ns.sent;
    s.nic_received += ns.received;
    s.itb_forwarded += ns.itb_forwarded;
    s.itb_pending_hits += ns.itb_pending_hits;
    s.nic_drops += ns.dropped_no_buffer;
    s.mcp_jobs += nic.cpu().jobs_executed();
    s.mcp_busy_ns += static_cast<std::uint64_t>(nic.cpu().busy_ns());
    const auto& gs = cluster.port(h).stats();
    s.gm_sent += gs.messages_sent;
    s.gm_delivered += gs.messages_delivered;
    s.gm_data += gs.packets_data;
    s.gm_acks += gs.packets_ack;
    s.gm_retransmits += gs.retransmissions;
  }
  return s;
}

void digest_model_counters(Digest& d, const LayerSnapshot& s) {
  for (std::uint64_t v :
       {s.net.injected, s.net.delivered, s.net.dropped, s.net.head_blocks,
        s.net.faults_injected, s.net.lost, s.lane_busy_ns, s.escape_busy_ns,
        s.nic_sent, s.nic_received, s.itb_forwarded, s.itb_pending_hits,
        s.nic_drops, s.mcp_busy_ns, s.gm_sent, s.gm_delivered, s.gm_data,
        s.gm_acks, s.gm_retransmits})
    d.add(v);
}

void add_layer_metrics(Metrics& out, const LayerSnapshot& a,
                       const LayerSnapshot& b, std::uint64_t ops) {
  const auto scheduled = b.queue.scheduled - a.queue.scheduled;
  const auto injected = b.net.injected - a.net.injected;
  const auto forwarded = b.itb_forwarded - a.itb_forwarded;
  const auto nic_packets =
      (b.nic_sent + b.nic_received) - (a.nic_sent + a.nic_received);
  out["sim.events_per_op"] = ratio(b.queue.fired - a.queue.fired, ops);
  out["sim.spill_share"] =
      ratio(b.queue.spill_scheduled - a.queue.spill_scheduled, scheduled);
  out["sim.cancel_share"] =
      ratio(b.queue.cancelled - a.queue.cancelled, scheduled);
  out["sim.peak_pending"] = static_cast<double>(b.queue.peak_pending);
  out["net.packets_per_msg"] =
      ratio(injected, b.gm_delivered - a.gm_delivered);
  out["net.head_blocks_per_packet"] =
      ratio(b.net.head_blocks - a.net.head_blocks, injected);
  out["net.delivered_share"] =
      ratio(b.net.delivered - a.net.delivered, injected);
  out["engine.escape_lane_share"] = ratio(b.escape_busy_ns - a.escape_busy_ns,
                                          b.lane_busy_ns - a.lane_busy_ns);
  out["nic.itb_forward_share"] = ratio(forwarded, injected);
  out["nic.itb_pending_share"] =
      ratio(b.itb_pending_hits - a.itb_pending_hits, forwarded);
  out["nic.mcp_jobs_per_packet"] = ratio(b.mcp_jobs - a.mcp_jobs, nic_packets);
  out["nic.mcp_busy_ns_per_packet"] =
      ratio(b.mcp_busy_ns - a.mcp_busy_ns, nic_packets);
  out["nic.drop_share"] =
      ratio(b.nic_drops - a.nic_drops, b.nic_received - a.nic_received);
  out["gm.packets_per_msg"] = ratio(
      (b.gm_data + b.gm_acks) - (a.gm_data + a.gm_acks), b.gm_sent - a.gm_sent);
  out["gm.retransmit_share"] =
      ratio(b.gm_retransmits - a.gm_retransmits, b.gm_data - a.gm_data);
}

void add_setup_metrics(Metrics& out, core::Cluster& cluster) {
  out["telemetry.metrics"] =
      static_cast<double>(cluster.telemetry().registry().size());
  const auto* report = cluster.mapper_report();
  out["mapper.probes"] =
      report ? static_cast<double>(report->probes_sent) : 0.0;
  const auto* table = cluster.route_table();
  out["routing.itbs_per_route"] = table ? table->average_itbs() : 0.0;
}

core::ClusterConfig data_plane_config(const engine::EngineSpec& engine) {
  core::ClusterConfig cfg;
  cfg.engine = engine;
  cfg.mcp_options.recv_buffers = 64;
  cfg.mcp_options.drop_when_full = true;
  cfg.gm_config.send_tokens = 64;
  cfg.gm_config.window = 32;
  cfg.gm_config.retransmit_timeout = 5 * sim::kMs;
  cfg.route_solve_jobs = 1;
  return cfg;
}

Region run_timed_region(RepResult& r, core::Cluster& cluster, SpanLog& spans,
                        sim::Time warmup, sim::Time end, sim::Duration slice,
                        const std::function<std::uint64_t()>& ops,
                        const std::function<std::uint64_t()>& own_allocs) {
  auto& queue = cluster.queue();
  {
    SpanScope s(spans, "sim");
    queue.run(warmup);
  }
  sim::mark_steady_state();
  Region g;
  g.before = snapshot(cluster);
  const auto ops0 = ops();
  const auto own0 = own_allocs();
  const auto t1 = host_ns();
  for (sim::Time until = warmup + slice; until <= end; until += slice) {
    SpanScope s(spans, "sim");
    queue.run(until);
  }
  const auto t2 = host_ns();
  const auto allocs = sim::allocations_since_mark() - (own_allocs() - own0);
  g.after = snapshot(cluster);
  r.timed_s = seconds_between(t1, t2);
  r.ops_timed = ops() - ops0;
  if (!ledger_holds(cluster))
    fail(r, "network ledger broken at the end of the timed region");
  {
    SpanScope s(spans, "sim");
    queue.run();  // drain: retransmissions, stragglers, timers
  }
  add_layer_metrics(r.exact, g.before, g.after, r.ops_timed);
  r.exact["sim.allocs_per_op"] = ratio(allocs, r.ops_timed);
  r.host["sim.ns_per_event"] =
      ratio(static_cast<std::uint64_t>(t2 - t1),
            g.after.queue.fired - g.before.queue.fired);
  return g;
}

bool ledger_holds(core::Cluster& cluster) {
  const auto& s = cluster.network().stats();
  return s.injected ==
         s.delivered + s.dropped + s.lost + cluster.network().in_flight();
}

void fail(RepResult& r, std::string what, std::uint64_t ops) {
  r.failed += ops;
  r.errors.push_back(std::move(what));
}

void time_mapper(SpanLog& spans, core::Cluster& cluster,
                 const engine::EngineSpec& engine) {
  const core::ClusterConfig defaults;
  SpanScope s(spans, "mapper");
  mapper::run(cluster.topology(), cluster.deadlock_engine().policy(),
              defaults.mapper_root_host, defaults.itb_selection,
              /*allow_partial=*/false, /*route_jobs=*/1, engine.lanes);
}

}  // namespace perfbench
