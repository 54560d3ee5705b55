#include "itb/telemetry/sampler.hpp"

#include <stdexcept>

namespace itb::telemetry {

Sampler::Sampler(sim::EventQueue& queue, sim::Duration period)
    : queue_(queue), period_(period) {
  if (period_ <= 0) throw std::invalid_argument("sampler period must be > 0");
}

void Sampler::add_probe(std::string name, Labels labels, Mode mode,
                        Probe probe, double scale) {
  if (!probe) throw std::invalid_argument("sampler probe must be callable");
  for (const auto& s : series_)
    if (s.name == name && s.labels == labels)
      throw std::invalid_argument("sampler probe already registered: " + name);
  Series s;
  s.name = std::move(name);
  s.labels = labels;
  s.mode = mode;
  s.scale = scale;
  series_.push_back(std::move(s));
  probes_.push_back(std::move(probe));
  prev_.push_back(0.0);
}

void Sampler::set_period(sim::Duration period) {
  if (period <= 0) throw std::invalid_argument("sampler period must be > 0");
  if (armed_) throw std::logic_error("cannot change period while armed");
  period_ = period;
}

void Sampler::start() {
  if (armed_) return;
  if (!running_) {
    // Fresh start: baseline every rate probe so the first window measures
    // growth from now, not from zero.
    running_ = true;
    prev_at_ = queue_.now();
    for (std::size_t i = 0; i < probes_.size(); ++i) prev_[i] = probes_[i]();
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
  // nothing because simulated time halts with an empty queue; resume()
  // (or stop()'s flush) picks the window back up.
  if (queue_.pending() > 0) arm();
}

void Sampler::sample_all(sim::Time t) {
  const sim::Duration elapsed = t - prev_at_;
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    const double raw = probes_[i]();
    double v = 0.0;
    switch (series_[i].mode) {
      case Mode::kLevel:
        v = raw * series_[i].scale;
        break;
      case Mode::kRate:
        v = elapsed > 0 ? series_[i].scale * (raw - prev_[i]) /
                              static_cast<double>(elapsed)
                        : 0.0;
        break;
    }
    series_[i].at.push_back(t);
    series_[i].values.push_back(v);
    prev_[i] = raw;
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

void Sampler::clear_samples() {
  for (auto& s : series_) {
    s.at.clear();
    s.values.clear();
  }
  ticks_ = 0;
}

}  // namespace itb::telemetry
