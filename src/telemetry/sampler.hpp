// Fixed-cadence metrics sampling driven by the event loop.
//
// MetricsSampler is the multi-column sibling of stats::PeriodicSampler: one
// scheduler event per tick evaluates every registered probe and appends a
// row to a SeriesTable (queue depth, utilization, cwnd sum, drop/mark
// rates, slab-pool occupancy — whatever the experiment wires in). When the
// simulation has a TraceSession attached, each tick also emits one counter
// event per column, so the sampled series render as counter tracks on the
// same Perfetto timeline as packet and TCP events.
//
// Header-only: the scheduling templates inline into the including TU, so
// rbs_telemetry needs no link-time dependency on rbs_sim.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace rbs::telemetry {

/// Samples a set of named probes every `interval` of simulated time.
class MetricsSampler {
 public:
  using Probe = std::function<double()>;

  /// Throws std::invalid_argument unless `interval` is positive: a zero
  /// cadence would re-arm the tick at one timestamp forever.
  MetricsSampler(sim::Simulation& sim, sim::SimTime interval)
      : sim_{sim}, interval_{interval} {
    if (interval <= sim::SimTime::zero()) {
      throw std::invalid_argument("MetricsSampler: sample interval must be positive");
    }
  }

  ~MetricsSampler() { stop(); }
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Registers a column before start(). Probes run in registration order.
  void add_probe(std::string column, Probe probe) {
    table_.columns.push_back(column);
    if (TraceSession* tr = sim_.trace(); tr != nullptr) {
      trace_names_.push_back(tr->intern(column));
    } else {
      trace_names_.push_back(nullptr);
    }
    probes_.push_back(std::move(probe));
  }

  /// Begins sampling at absolute time `first`.
  void start(sim::SimTime first) {
    next_ = sim_.at(first, [this] { tick(); }, sim::EventClass::kSampler);
  }

  void stop() noexcept { next_.cancel(); }

  [[nodiscard]] const SeriesTable& table() const noexcept { return table_; }

  /// Stops sampling and moves the accumulated table out.
  [[nodiscard]] SeriesTable take() {
    stop();
    return std::move(table_);
  }

 private:
  void tick() {
    const sim::SimTime now = sim_.now();
    std::vector<double> row;
    row.reserve(probes_.size());
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      const double v = probes_[i]();
      row.push_back(v);
      TraceSession* tr = sim_.trace();
      if (tr != nullptr && trace_names_[i] != nullptr) {
        tr->counter("metrics", trace_names_[i], now, v);
      }
    }
    table_.times_ps.push_back(now.ps());
    table_.rows.push_back(std::move(row));
    next_ = sim_.after(interval_, [this] { tick(); }, sim::EventClass::kSampler);
  }

  sim::Simulation& sim_;
  sim::SimTime interval_;
  std::vector<Probe> probes_;
  std::vector<const char*> trace_names_;
  SeriesTable table_;
  sim::Scheduler::EventHandle next_;
};

}  // namespace rbs::telemetry
