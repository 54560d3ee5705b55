// Event-queue-driven periodic sampler.
//
// A Sampler turns metric-table fields — live quantities of the running
// models (cumulative channel busy time, ITB pending-queue depth, DMA busy
// time, GM tokens in use, retransmission counts) — into time series by
// firing a tick event every `period` nanoseconds of simulated time. A
// series spec names one field of one table plus a mode and a scale, and
// yields one series per instance of the table, labelled like the instance.
//
// Two modes:
//   * kLevel — record scale * field (queue depths, tokens in use);
//   * kRate  — record scale * (field - previous) / elapsed_ns, turning a
//     cumulative counter into a rate over the tick window. With scale = 1 a
//     busy-nanosecond counter becomes a utilization fraction in [0, 1];
//     with scale = 1e9 an event counter becomes events per second. Because
//     the elapsed window is measured (not assumed equal to the period), the
//     series integrates exactly: sum(v_i * (t_i - t_{i-1})) / scale equals
//     the counter's total growth.
//
// The specs cost nothing per instance until the first start(), which
// builds the series; a sampler that never starts records nothing.
//
// Interaction with queue draining: many harnesses run the queue until it
// empties (run_pingpong drains between iterations). A naively re-arming
// tick would keep the queue alive forever, so a tick that finds no other
// pending event *parks* instead of re-arming — simulated time cannot
// advance while the queue is empty, so nothing is missed. start() re-arms
// a parked sampler; stop() records one final flush sample (so open windows
// are not lost) and disarms.
#pragma once

#include <initializer_list>
#include <memory>
#include <string_view>
#include <vector>

#include "itb/sim/event_queue.hpp"
#include "itb/telemetry/metrics.hpp"

namespace itb::telemetry {

class Sampler {
 public:
  enum class Mode : std::uint8_t { kLevel, kRate };

  /// Series `name`: field `field` of `table` read in `mode`, times `scale`.
  /// `name` and `field` are string literals.
  struct SeriesSpec {
    std::string_view name;
    const MetricTable* table = nullptr;
    std::string_view field;
    Mode mode = Mode::kLevel;
    double scale = 1.0;
  };

  struct Series {
    std::string_view name;
    Labels labels;
    Mode mode = Mode::kLevel;
    double scale = 1.0;
    std::vector<sim::Time> at;    // tick timestamps
    std::vector<double> values;   // one per tick
  };

  explicit Sampler(sim::EventQueue& queue,
                   sim::Duration period = 100 * sim::kUs);

  /// Add one series per spec and table instance, instance-major: every
  /// spec's series for instance 0, then for instance 1, ... The specs'
  /// tables must have one instance count. Throws std::invalid_argument on
  /// an unknown field or unequal counts, std::logic_error once started.
  void add_series(std::initializer_list<SeriesSpec> specs);

  /// Keep a table that only this sampler reads alive as long as the
  /// sampler. Returns the table.
  const MetricTable& own(std::unique_ptr<MetricTable> table);

  sim::Duration period() const { return period_; }

  /// Arm the first tick at now + period and baseline every kRate series.
  /// No-op when already armed; a parked sampler resumes.
  void start();

  /// Take a final sample covering the window since the last tick (if time
  /// advanced), then disarm. Safe to call repeatedly.
  void stop();

  /// Armed or parked (started and not stopped).
  bool running() const { return running_; }
  /// Parked: started, but the tick is not scheduled because the queue had
  /// no other work. start() re-arms.
  bool parked() const { return running_ && !armed_; }

  std::uint64_t ticks() const { return ticks_; }

  /// Every series, in add_series order; empty until the first start().
  const std::vector<Series>& series() const { return series_; }
  const Series* find(std::string_view name, Labels labels = {}) const;

 private:
  /// Where series k reads: its table, field and instance.
  struct Read {
    const MetricTable* table;
    std::size_t field;
    std::size_t instance;
  };

  void build_series();
  double read(std::size_t k) const {
    return reads_[k].table->read(reads_[k].field, reads_[k].instance);
  }
  void arm();
  void tick();
  void sample_all(sim::Time t);

  sim::EventQueue& queue_;
  sim::Duration period_;
  std::vector<std::vector<SeriesSpec>> groups_;  // one per add_series call
  std::vector<std::unique_ptr<MetricTable>> owned_;
  bool built_ = false;
  std::vector<Series> series_;
  std::vector<Read> reads_;         // parallel to series_
  std::vector<double> prev_;        // last polled raw value, per series
  sim::Time prev_at_ = 0;           // time of the last poll
  bool running_ = false;
  bool armed_ = false;
  sim::EventId pending_tick_{};
  std::uint64_t ticks_ = 0;
};

}  // namespace itb::telemetry
