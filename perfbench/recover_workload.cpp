// map_recover_itb1024: the control plane at a thousand hosts.
//
// A 256-switch/1024-host irregular COW (scale_topology's generator and seed
// 2001) on the ITB engine with no data traffic — irregular rather than a fat
// tree because up*/down* is already minimal on a fat tree, so it would
// produce no ITB route. Setup builds the cluster —
// discovery walk, all-pairs ITB solve, table download, wiring, metric
// registration — and the timed region runs two single-trunk fault cycles,
// each a down round and an up round: the first on the trunk carrying the
// most stored routes, the second on a median trunk. Mapper, routing,
// recovery patching and cluster assembly do all the work; the data plane
// does none, which makes this the bypass workload for data-plane changes.
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <sstream>
#include <streambuf>

#include "common.hpp"
#include "itb/sim/alloc_hook.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kFabricSeed = 2001;
constexpr std::uint16_t kSwitches = 256;
constexpr std::uint8_t kHostsPerSwitch = 4;
const engine::EngineSpec kEngine{engine::EngineKind::kItb, 1};
// Four fault edges, one recovery round each: the busiest trunk fails, then
// returns, then the median trunk fails and returns. Edge k lands at a seeded
// time in [1 + 10k, 2 + 10k) ms; 10 ms apart is far beyond the remap delay
// plus the modelled recompute cost of a full solve, so no two edges
// coalesce into one round.
constexpr std::size_t kRounds = 4;
constexpr sim::Duration kEdgeSpacing = 10 * sim::kMs;

struct Inputs {
  std::array<sim::Time, kRounds> edges{};
  topo::LinkId busiest = 0;
  topo::LinkId median = 0;
  /// Fresh solve over the final link state (every link up again), in the
  /// recovery engine's coordinates: true fabric ids, root at host 0's
  /// uplink switch.
  std::string reference_dump;
};

topo::Topology make_topology() {
  sim::Rng rng(kFabricSeed);
  topo::IrregularSpec spec;
  spec.switches = kSwitches;
  spec.hosts_per_switch = kHostsPerSwitch;
  return topo::make_random_irregular(spec, rng);
}

Inputs generate(std::uint64_t seed) {
  Inputs in;
  sim::Rng rng = sim::Rng::stream(seed, 0);
  for (std::size_t k = 0; k < kRounds; ++k)
    in.edges[k] = static_cast<sim::Time>(k) * kEdgeSpacing + 1 * sim::kMs +
                  static_cast<sim::Time>(rng.next_below(1 * sim::kMs));
  const auto topology = make_topology();
  const auto root = topology.host_uplink(0).node.index;
  const std::vector<char> all_up(topology.link_count(), 1);
  const routing::UpDown updown(topology, root, all_up);
  const routing::Router router(updown, core::ClusterConfig{}.itb_selection);
  const routing::RouteTable table(router,
                                  engine::make_engine(kEngine)->policy());
  const auto usage = table.channel_usage(topology);
  std::vector<std::pair<std::uint64_t, topo::LinkId>> trunks;
  for (topo::LinkId l = 0; l < topology.link_count(); ++l) {
    const auto& link = topology.link(l);
    if (link.a.node.kind == topo::NodeKind::kSwitch &&
        link.b.node.kind == topo::NodeKind::kSwitch &&
        !(link.a.node == link.b.node))
      trunks.push_back({std::uint64_t{usage[2 * l]} + usage[2 * l + 1], l});
  }
  std::sort(trunks.begin(), trunks.end());
  in.busiest = trunks.back().second;
  in.median = trunks[trunks.size() / 2].second;
  std::ostringstream dump;
  table.dump(dump);
  in.reference_dump = std::move(dump).str();
  return in;
}

/// Stream sink that compares a table dump byte for byte against a
/// reference and digests it, without holding a second copy.
class DumpCompare : public std::streambuf {
 public:
  explicit DumpCompare(const std::string& reference) : ref_(reference) {}
  bool equal() const { return !mismatch_ && pos_ == ref_.size(); }
  std::uint64_t digest() const { return digest_.value(); }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) {
      const char c = traits_type::to_char_type(ch);
      xsputn(&c, 1);
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto len = static_cast<std::size_t>(n);
    if (pos_ + len > ref_.size() || ref_.compare(pos_, len, s, len) != 0)
      mismatch_ = true;
    pos_ += len;
    digest_.add_bytes(s, len);
    return n;
  }

 private:
  const std::string& ref_;
  std::size_t pos_ = 0;
  bool mismatch_ = false;
  Digest digest_;
};

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  static_assert(sizeof b == sizeof v);
  std::memcpy(&b, &v, sizeof b);
  return b;
}

class Rep {
 public:
  Rep(const Inputs& in, SpanLog& spans) : in_(in), spans_(spans) {}

  RepResult run() {
    RepResult r;
    SpanScope rep_span(spans_, "rep");

    const auto allocs0 = sim::total_allocations();
    const auto t0 = host_ns();
    core::ClusterConfig cfg;
    {
      SpanScope s(spans_, "topo");
      cfg.topology = make_topology();
    }
    cfg.engine = kEngine;
    cfg.route_solve_jobs = 1;
    cfg.fault_schedule.link_down(in_.busiest, in_.edges[0], in_.edges[1]);
    cfg.fault_schedule.link_down(in_.median, in_.edges[2], in_.edges[3]);
    {
      SpanScope s(spans_, "core");
      cluster_ = std::make_unique<core::Cluster>(std::move(cfg));
    }
    r.setup_s = seconds_between(t0, host_ns());
    r.exact["sim.setup_allocs"] =
        static_cast<double>(sim::total_allocations() - allocs0);
    if (spans_.armed()) time_mapper(spans_, *cluster_, kEngine);
    add_setup_metrics(r.exact, *cluster_);

    // Timed: from before the first fault edge to the last table install,
    // one slice per round.
    auto& queue = cluster_->queue();
    const auto* recovery = cluster_->recovery();
    sim::mark_steady_state();
    const auto before = snapshot(*cluster_);
    const auto t1 = host_ns();
    for (std::size_t k = 0; k < kRounds; ++k) {
      SpanScope round(spans_, "recovery", static_cast<std::int64_t>(k));
      SpanScope s(spans_, "sim");
      queue.run(k + 1 < kRounds ? in_.edges[k + 1] - 1 : INT64_MAX);
    }
    const auto t2 = host_ns();
    const auto allocs = sim::allocations_since_mark();
    const auto after = snapshot(*cluster_);
    r.timed_s = seconds_between(t1, t2);
    r.attempted = kRounds;
    r.ops_timed = recovery ? recovery->rounds().size() : 0;

    add_layer_metrics(r.exact, before, after, r.ops_timed);
    r.exact["sim.allocs_per_op"] = ratio(allocs, r.ops_timed);
    r.host["sim.ns_per_event"] =
        ratio(static_cast<std::uint64_t>(t2 - t1),
              after.queue.fired - before.queue.fired);
    check(r);
    return r;
  }

 private:
  void check(RepResult& r) {
    const auto* recovery = cluster_->recovery();
    if (!recovery) {
      fail(r, "no recovery manager", kRounds);
      return;
    }
    const auto& rounds = recovery->rounds();
    if (rounds.size() != kRounds)
      fail(r, std::to_string(rounds.size()) + " recovery rounds, expected " +
                  std::to_string(kRounds),
           rounds.size() < kRounds ? kRounds - rounds.size() : 1);
    const auto& st = recovery->stats();
    if (st.unreachable_hosts != 0 || st.failed_remaps != 0)
      fail(r, "hosts unreachable after the last round");

    Digest d;
    for (const auto& round : rounds)
      for (std::uint64_t v :
           {static_cast<std::uint64_t>(round.fired),
            static_cast<std::uint64_t>(round.installed),
            std::uint64_t{round.full}, round.probes, round.full_walk_probes,
            round.sources_resolved, round.sources_total})
        d.add(v);
    for (std::uint64_t v :
         {st.remaps, st.failed_remaps, st.unreachable_hosts, st.full_resolves,
          st.patch_rounds, st.scoped_probes, st.full_probe_equiv,
          st.sources_patched, st.sources_total, st.coalesced_events,
          st.flaps_quarantined, st.overflow_full_resolves,
          st.verify_fallbacks, recovery->epoch()})
      d.add(v);
    d.add(recovery->recovery_latency());
    d.add(static_cast<std::uint64_t>(cluster_->queue().now()));
    d.add(cluster_->mapper_report()->probes_sent);
    d.add(bits(cluster_->route_table()->average_itbs()));

    if (const auto* table = recovery->current_table()) {
      DumpCompare cmp(in_.reference_dump);
      std::ostream os(&cmp);
      table->dump(os);
      if (!cmp.equal())
        fail(r, "patched table differs from a fresh solve over the final "
                "link state");
      d.add(cmp.digest());
    } else {
      fail(r, "no table installed");
    }
    r.digest = d.value();

    r.exact["recovery.sources_resolved"] =
        static_cast<double>(st.sources_patched);
    r.exact["recovery.probes"] = static_cast<double>(st.scoped_probes);
    r.exact["recovery.full_resolves"] = static_cast<double>(st.full_resolves);
    r.exact["fault.windows"] = static_cast<double>(
        cluster_->faults()->stats().windows_opened +
        cluster_->faults()->stats().windows_closed);
  }

  const Inputs& in_;
  SpanLog& spans_;
  std::unique_ptr<core::Cluster> cluster_;
};

}  // namespace

Workload prepare_recover_workload(std::uint64_t seed) {
  auto in = std::make_shared<const Inputs>(generate(seed));
  Workload w;
  w.span_capacity = 64;
  w.min_reps = 4;
  w.run = [in](SpanLog& spans) { return Rep(*in, spans).run(); };
  return w;
}

}  // namespace perfbench
