// Event-queue-driven periodic sampler.
//
// A Sampler owns a set of probes — closures reading live quantities out of
// the running models (cumulative channel busy time, ITB pending-queue depth,
// DMA busy time, GM tokens in use, retransmission counts) — and turns them
// into time series by firing a tick event every `period` nanoseconds of
// simulated time.
//
// Two probe modes:
//   * kLevel — record probe() as-is (queue depths, tokens in use);
//   * kRate  — record scale * (probe() - previous) / elapsed_ns, turning a
//     cumulative counter into a rate over the tick window. With scale = 1 a
//     busy-nanosecond counter becomes a utilization fraction in [0, 1];
//     with scale = 1e9 an event counter becomes events per second. Because
//     the elapsed window is measured (not assumed equal to the period), the
//     series integrates exactly: sum(v_i * (t_i - t_{i-1})) / scale equals
//     the counter's total growth.
//
// Interaction with queue draining: many harnesses run the queue until it
// empties (run_pingpong drains between iterations). A naively re-arming
// tick would keep the queue alive forever, so a tick that finds no other
// pending event *parks* instead of re-arming — simulated time cannot
// advance while the queue is empty, so nothing is missed. resume() re-arms
// a parked sampler; stop() records one final flush sample (so open windows
// are not lost) and disarms.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "itb/sim/event_queue.hpp"
#include "itb/telemetry/metrics.hpp"

namespace itb::telemetry {

class Sampler {
 public:
  enum class Mode : std::uint8_t { kLevel, kRate };

  using Probe = std::function<double()>;

  struct Series {
    std::string name;
    Labels labels;
    Mode mode = Mode::kLevel;
    double scale = 1.0;
    std::vector<sim::Time> at;    // tick timestamps
    std::vector<double> values;   // one per tick
  };

  explicit Sampler(sim::EventQueue& queue,
                   sim::Duration period = 100 * sim::kUs);

  /// Register a probe. Must not collide with an existing {name, labels}.
  void add_probe(std::string name, Labels labels, Mode mode, Probe probe,
                 double scale = 1.0);

  /// Sampling period; may only change while the sampler is not armed.
  void set_period(sim::Duration period);
  sim::Duration period() const { return period_; }

  /// Arm the first tick at now + period and baseline every kRate probe.
  /// No-op when already armed; a parked sampler resumes.
  void start();
  /// Alias for start() that reads better at call sites that re-arm a
  /// parked sampler before scheduling more work.
  void resume() { start(); }

  /// Take a final sample covering the window since the last tick (if time
  /// advanced), then disarm. Safe to call repeatedly.
  void stop();

  /// Armed or parked (started and not stopped).
  bool running() const { return running_; }
  /// Parked: started, but the tick is not scheduled because the queue had
  /// no other work. resume() re-arms.
  bool parked() const { return running_ && !armed_; }

  std::uint64_t ticks() const { return ticks_; }

  const std::vector<Series>& series() const { return series_; }
  const Series* find(std::string_view name, Labels labels = {}) const;

  /// Time of the sample before series' first entry (the start() baseline).
  sim::Time baseline_at() const { return prev_at_; }

  /// Drop recorded samples (probes stay registered; tick count resets).
  void clear_samples();

 private:
  void arm();
  void tick();
  void sample_all(sim::Time t);

  sim::EventQueue& queue_;
  sim::Duration period_;
  std::vector<Series> series_;
  std::vector<Probe> probes_;       // parallel to series_
  KeyIndex index_;                  // {name, labels} -> position in series_
  std::vector<double> prev_;        // last polled raw value, per probe
  sim::Time prev_at_ = 0;           // time of the last poll
  bool running_ = false;
  bool armed_ = false;
  sim::EventId pending_tick_{};
  std::uint64_t ticks_ = 0;
};

}  // namespace itb::telemetry
