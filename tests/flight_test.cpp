// Flight recorder subsystem: ring capture, timeline stitching, Chrome
// export, and replay checking (DESIGN.md §6g).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "itb/core/experiments.hpp"
#include "itb/sim/parallel.hpp"
#include "itb/flight/chrome_trace.hpp"
#include "itb/flight/recorder.hpp"
#include "itb/flight/replay.hpp"
#include "itb/flight/timeline.hpp"
#include "itb/workload/pingpong.hpp"

namespace {

using namespace itb;

/// Run the Fig. 8 ping-pong on one forward path with the recorder armed.
flight::Recording record_fig8(bool itb_path, std::size_t capacity,
                              std::size_t payload = 256, int iterations = 5) {
  flight::RecorderConfig frc;
  frc.enabled = true;
  frc.capacity = capacity;
  auto cluster = core::make_fig8_cluster(itb_path, {}, {}, {}, frc);
  workload::run_pingpong(cluster->queue(), cluster->port(core::kHost1),
                         cluster->port(core::kHost2), payload, iterations);
  return cluster->flight()->snapshot();
}

TEST(FlightRecorder, ClusterGatesCaptureBehindConfig) {
  // Off by default: the cluster owns no recorder and every hook site stays
  // a single null-pointer branch.
  auto plain = core::make_fig8_cluster(true);
  EXPECT_EQ(plain->flight(), nullptr);

  flight::RecorderConfig frc;
  frc.enabled = true;
  auto armed = core::make_fig8_cluster(true, {}, {}, {}, frc);
  ASSERT_NE(armed->flight(), nullptr);
  EXPECT_EQ(armed->flight()->capacity(), frc.capacity);
}

TEST(FlightRecorder, RingWraparoundKeepsNewestAndCountsEvicted) {
  flight::FlightRecorder rec({/*enabled=*/true, /*capacity=*/4});
  for (std::uint64_t i = 0; i < 10; ++i)
    rec.record(flight::EventType::kInject, static_cast<sim::Time>(i), i, 0, 0);
  const auto snap = rec.snapshot();
  EXPECT_EQ(snap.recorded, 10u);
  EXPECT_EQ(snap.evicted, 6u);
  ASSERT_EQ(snap.events.size(), 4u);
  // The survivors are the newest four, in record order.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(snap.events[i].handle, 6u + i);
}

TEST(FlightRecorder, FingerprintIsCapacityInvariant) {
  // The fingerprint folds at record time, so it covers the whole stream
  // even after the ring evicts — a tiny ring and a roomy one agree.
  const auto small = record_fig8(true, 64);
  const auto large = record_fig8(true, std::size_t{1} << 18);
  EXPECT_GT(small.evicted, 0u);
  EXPECT_EQ(large.evicted, 0u);
  EXPECT_EQ(small.recorded, large.recorded);
  EXPECT_EQ(small.fingerprint, large.fingerprint);
}

TEST(FlightRecorder, RerunIsBitIdentical) {
  const auto a = record_fig8(true, std::size_t{1} << 18);
  const auto b = record_fig8(true, std::size_t{1} << 18);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(flight::ReplayChecker::diff(a, b), std::nullopt);
}

TEST(WormTimeline, StagesTelescopeExactly) {
  // The acceptance invariant: per-journey stage sums equal end - start to
  // the nanosecond, on both Fig. 8 paths.
  for (bool itb_path : {false, true}) {
    const auto rec = record_fig8(itb_path, std::size_t{1} << 18);
    flight::WormTimeline tl(rec);
    EXPECT_GT(tl.complete_count(), 0u);
    EXPECT_EQ(tl.max_stage_residual(), 0) << "itb_path=" << itb_path;
    for (const auto& j : tl.journeys()) {
      if (!j.complete) continue;
      EXPECT_EQ(j.stages.total(), j.end - j.start);
    }
  }
}

TEST(WormTimeline, SendPostGivesHostTxStage) {
  const auto rec = record_fig8(false, std::size_t{1} << 18);
  flight::WormTimeline tl(rec);
  ASSERT_GT(tl.complete_count(), 0u);
  // Journeys start at the send post, so the host-side SDMA/PCI stage is
  // attributed (non-zero) on every delivered packet.
  EXPECT_GT(tl.totals().host_tx, 0);
  for (const auto& j : tl.journeys()) {
    if (!j.complete) continue;
    EXPECT_GT(j.stages.host_tx, 0);
  }
}

TEST(WormTimeline, ItbPathRecordsHopsWithOrderedSubSpans) {
  const auto rec = record_fig8(true, std::size_t{1} << 18);
  flight::WormTimeline tl(rec);
  const auto split = tl.itb_hop_split();
  EXPECT_GT(split.hops, 0u);
  EXPECT_GT(split.total_ns(), 0.0);
  bool saw_hop = false;
  for (const auto& j : tl.journeys()) {
    for (const auto& hop : j.itb_hops) {
      saw_hop = true;
      EXPECT_EQ(hop.host, core::kInTransit);
      EXPECT_LE(hop.eject, hop.early);
      EXPECT_LE(hop.early, hop.dma_start);
      EXPECT_LE(hop.dma_start, hop.reinject);
      ASSERT_EQ(j.segments.size(), 2u);  // one re-injection: two handles
    }
  }
  EXPECT_TRUE(saw_hop);
}

TEST(WormTimeline, TruncatedJourneysAreNotClaimedComplete) {
  // With a tiny ring, early markers of most journeys are gone; whatever
  // stitches from the surviving window must be flagged, not mis-summed.
  const auto rec = record_fig8(true, 64);
  flight::WormTimeline tl(rec);
  for (const auto& j : tl.journeys()) {
    if (!j.truncated) continue;
    EXPECT_FALSE(j.complete);
  }
}

TEST(ReplayChecker, SaveLoadRoundTripsBitExactly) {
  const auto rec = record_fig8(true, std::size_t{1} << 18);
  std::stringstream buf;
  flight::ReplayChecker::save(rec, buf);
  const auto loaded = flight::ReplayChecker::load(buf);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->recorded, rec.recorded);
  EXPECT_EQ(loaded->evicted, rec.evicted);
  EXPECT_EQ(loaded->fingerprint, rec.fingerprint);
  EXPECT_EQ(flight::ReplayChecker::diff(rec, *loaded), std::nullopt);
}

TEST(ReplayChecker, LoadRejectsCorruptStreams) {
  std::stringstream bad_magic("XXXX junk");
  EXPECT_EQ(flight::ReplayChecker::load(bad_magic), std::nullopt);

  const auto rec = record_fig8(false, 1024);
  std::stringstream buf;
  flight::ReplayChecker::save(rec, buf);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() / 2);  // short stream
  std::stringstream truncated(bytes);
  EXPECT_EQ(flight::ReplayChecker::load(truncated), std::nullopt);
}

TEST(ReplayChecker, DiffFindsFirstDivergentEvent) {
  auto a = record_fig8(true, std::size_t{1} << 18);
  auto b = a;
  ASSERT_GT(b.events.size(), 5u);
  b.events[5].t += 1;
  const auto d = flight::ReplayChecker::diff(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->index, 5u);
  ASSERT_TRUE(d->a.has_value());
  ASSERT_TRUE(d->b.has_value());
  const std::string desc = d->describe();
  EXPECT_NE(desc.find("5"), std::string::npos);

  // One stream a strict prefix of the other: divergence at the tail.
  auto c = a;
  c.events.pop_back();
  const auto tail = flight::ReplayChecker::diff(a, c);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->index, a.events.size() - 1);
  EXPECT_FALSE(tail->b.has_value());
}

TEST(ReplayChecker, FingerprintMatchesLiveWhenNothingEvicted) {
  const auto rec = record_fig8(false, std::size_t{1} << 18);
  ASSERT_EQ(rec.evicted, 0u);
  EXPECT_EQ(flight::ReplayChecker::fingerprint(rec), rec.fingerprint);
  const auto hex = flight::ReplayChecker::fingerprint_hex(rec.fingerprint);
  EXPECT_EQ(hex.size(), 18u);  // "0x" + 16 digits
  EXPECT_EQ(hex.substr(0, 2), "0x");
}

TEST(ReplayChecker, SweepFingerprintIsJobsInvariant) {
  // The CI contract: merging per-point recordings in point order yields
  // the same fingerprint whatever --jobs says.
  auto sweep = [](unsigned jobs) {
    auto recs = sim::run_sweep_parallel(
        2, [](std::size_t i) { return record_fig8(i == 1, 4096); }, jobs);
    flight::Recording merged;
    merged.fingerprint = flight::kFingerprintSeed;
    for (auto& r : recs) merged.append(r);
    return merged;
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(flight::ReplayChecker::diff(serial, parallel), std::nullopt);
}

TEST(ChromeTrace, EscapesNamesAndEmitsStageSlices) {
  const auto rec = record_fig8(true, std::size_t{1} << 18);
  flight::WormTimeline tl(rec);
  std::stringstream out;
  flight::write_chrome_trace(out, "quote\" back\\slash\nbell\x07", tl);
  const std::string json = out.str();
  // The hostile process name survives as valid JSON escapes...
  EXPECT_NE(json.find("quote\\\" back\\\\slash\\nbell\\u0007"),
            std::string::npos);
  // ...and no raw control characters leak into the document.
  for (unsigned char c : json) EXPECT_GE(c, 0x20u);
  // Stage slices, journey envelopes and instants are all present.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"journey\""), std::string::npos);
  EXPECT_NE(json.find("\"host_tx\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

}  // namespace
