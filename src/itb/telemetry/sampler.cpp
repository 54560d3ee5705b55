#include "itb/telemetry/sampler.hpp"

#include <stdexcept>
#include <string>

namespace itb::telemetry {

Sampler::Sampler(sim::EventQueue& queue, sim::Duration period)
    : queue_(queue), period_(period) {
  if (period_ <= 0) throw std::invalid_argument("sampler period must be > 0");
}

void Sampler::add_series(std::initializer_list<SeriesSpec> specs) {
  if (built_) throw std::logic_error("sampler series added after start()");
  for (const auto& s : specs)
    if (!s.table->field(s.field) ||
        s.table->instance_count() != specs.begin()->table->instance_count())
      throw std::invalid_argument("sampler series " + std::string(s.name) +
                                  ": no field " + std::string(s.field) +
                                  " or another instance count");
  groups_.emplace_back(specs);
}

const MetricTable& Sampler::own(std::unique_ptr<MetricTable> table) {
  owned_.push_back(std::move(table));
  return *owned_.back();
}

void Sampler::build_series() {
  built_ = true;
  for (const auto& group : groups_)
    for (std::size_t i = 0;
         !group.empty() && i < group.front().table->instance_count(); ++i)
      for (const auto& s : group) {
        series_.push_back(
            Series{s.name, s.table->labels(i), s.mode, s.scale, {}, {}});
        reads_.push_back(Read{s.table, *s.table->field(s.field), i});
      }
  prev_.assign(series_.size(), 0.0);
}

void Sampler::start() {
  if (armed_) return;
  if (!running_) {
    // Fresh start: baseline every rate series so the first window measures
    // growth from now, not from zero.
    if (!built_) build_series();
    running_ = true;
    prev_at_ = queue_.now();
    for (std::size_t k = 0; k < series_.size(); ++k) prev_[k] = read(k);
  }
  arm();
}

void Sampler::arm() {
  armed_ = true;
  pending_tick_ = queue_.schedule_in(period_, [this] { tick(); });
}

void Sampler::tick() {
  armed_ = false;
  sample_all(queue_.now());
  // Re-arm only while the simulation has other work: a lone sampler tick
  // would otherwise keep a drain-style run() alive forever. Parking loses
  // nothing because simulated time halts with an empty queue; start()
  // (or stop()'s flush) picks the window back up.
  if (queue_.pending() > 0) arm();
}

void Sampler::sample_all(sim::Time t) {
  const sim::Duration elapsed = t - prev_at_;
  for (std::size_t k = 0; k < series_.size(); ++k) {
    Series& s = series_[k];
    const double raw = read(k);
    double v = 0.0;
    switch (s.mode) {
      case Mode::kLevel:
        v = raw * s.scale;
        break;
      case Mode::kRate:
        v = elapsed > 0 ? s.scale * (raw - prev_[k]) /
                              static_cast<double>(elapsed)
                        : 0.0;
        break;
    }
    s.at.push_back(t);
    s.values.push_back(v);
    prev_[k] = raw;
  }
  prev_at_ = t;
  ++ticks_;
}

void Sampler::stop() {
  if (!running_) return;
  if (armed_) {
    queue_.cancel(pending_tick_);
    armed_ = false;
  }
  // Flush the open window so cumulative counters integrate exactly.
  if (queue_.now() > prev_at_) sample_all(queue_.now());
  running_ = false;
}

const Sampler::Series* Sampler::find(std::string_view name,
                                     Labels labels) const {
  for (const auto& s : series_)
    if (s.name == name && s.labels == labels) return &s;
  return nullptr;
}

}  // namespace itb::telemetry
