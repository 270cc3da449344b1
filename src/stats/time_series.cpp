#include "stats/time_series.hpp"

#include <cstdio>
#include <stdexcept>

namespace rbs::stats {

std::vector<double> TimeSeries::values() const {
  std::vector<double> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.value);
  return out;
}

std::string TimeSeries::to_csv() const {
  std::string out;
  out.reserve(points_.size() * 24);
  char line[64];
  for (const auto& p : points_) {
    std::snprintf(line, sizeof line, "%.9f,%.9g\n", p.time.to_seconds(), p.value);
    out += line;
  }
  return out;
}

PeriodicSampler::PeriodicSampler(sim::Simulation& sim, sim::SimTime interval, Probe probe)
    : sim_{sim}, interval_{interval}, probe_{std::move(probe)} {
  if (interval <= sim::SimTime::zero()) {
    throw std::invalid_argument("PeriodicSampler: sample interval must be positive");
  }
}

void PeriodicSampler::start(sim::SimTime first) {
  next_ = sim_.at(first, [this] { tick(); }, sim::EventClass::kSampler);
}

void PeriodicSampler::tick() {
  series_.record(sim_.now(), probe_());
  next_ = sim_.after(interval_, [this] { tick(); }, sim::EventClass::kSampler);
}

}  // namespace rbs::stats
