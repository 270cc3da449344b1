#include "fault/fault_injector.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/trace.hpp"

namespace rbs::fault {
namespace {

/// Stream id for the injector's private RNG fork ("FAULT" in ASCII).
constexpr std::uint64_t kFaultRngStream = 0x4641554C54ull;

// The composed fault state is always recomputed from the full active set
// with a fixed fold order, so apply() and audit() agree bitwise and an
// empty set restores the exact unfaulted value.
double composed_rate_factor(const std::vector<double>& factors) {
  double product = 1.0;
  for (double f : factors) product *= f;
  return product;
}

sim::SimTime composed_extra_delay(const std::vector<sim::SimTime>& extras) {
  sim::SimTime sum = sim::SimTime::zero();
  for (sim::SimTime e : extras) sum += e;
  return sum;
}

double composed_loss_probability(const std::vector<double>& probs) {
  // Overlapping bursts act as independent corruption processes.
  double survive = 1.0;
  for (double p : probs) survive *= 1.0 - p;
  return 1.0 - survive;
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulation& sim)
    : sim_{sim}, loss_rng_{sim.rng().fork(kFaultRngStream)} {}

void FaultInjector::attach(net::Link& link) {
  const auto [it, inserted] = targets_.emplace(link.name(), Target{});
  if (!inserted) {
    throw std::invalid_argument("fault injector: link '" + link.name() + "' attached twice");
  }
  it->second.link = &link;
}

void FaultInjector::arm(const FaultSchedule& schedule) {
  schedule.validate();
  for (const FaultEvent& event : schedule.events()) {
    const auto it = targets_.find(event.link);
    if (it == targets_.end()) {
      throw std::invalid_argument("fault schedule names unattached link '" + event.link + "'");
    }
    Target* target = &it->second;  // map nodes are stable; safe to capture
    ++totals_.events_armed;
    sim_.at(event.at, [this, target, event] { begin(*target, event); },
            sim::EventClass::kFault);
    sim_.at(event.at + event.duration, [this, target, event] { end(*target, event); },
            sim::EventClass::kFault);
  }
}

void FaultInjector::trace_edge(const char* edge, const FaultEvent& event) {
  if (auto* tr = sim_.trace()) {
    tr->instant("fault", fault_kind_name(event.kind), sim_.now(), telemetry::TraceArg{edge, 1},
                telemetry::TraceArg{"dur_ms",
                                    static_cast<std::int64_t>(event.duration.to_milliseconds())});
  }
}

void FaultInjector::begin(Target& target, const FaultEvent& event) {
  ++totals_.onsets_fired;
  sim_.metrics().counter("faults.events", {{"kind", fault_kind_name(event.kind)}}).add();
  trace_edge("onset", event);
  switch (event.kind) {
    case FaultKind::kLinkDown: ++target.down_windows; break;
    case FaultKind::kQueueFreeze: ++target.freeze_windows; break;
    case FaultKind::kRateDegrade: target.rate_factors.push_back(event.value); break;
    case FaultKind::kDelayDegrade: target.delay_extras.push_back(event.extra); break;
    case FaultKind::kLossBurst: target.loss_probs.push_back(event.value); break;
  }
  apply(target, event.kind);
}

void FaultInjector::end(Target& target, const FaultEvent& event) {
  ++totals_.recoveries_fired;
  trace_edge("clear", event);
  switch (event.kind) {
    case FaultKind::kLinkDown:
      if (target.down_windows > 0) --target.down_windows;
      break;
    case FaultKind::kQueueFreeze:
      if (target.freeze_windows > 0) --target.freeze_windows;
      break;
    case FaultKind::kRateDegrade: {
      auto& v = target.rate_factors;
      if (const auto it = std::find(v.begin(), v.end(), event.value); it != v.end()) v.erase(it);
      break;
    }
    case FaultKind::kDelayDegrade: {
      auto& v = target.delay_extras;
      if (const auto it = std::find(v.begin(), v.end(), event.extra); it != v.end()) v.erase(it);
      break;
    }
    case FaultKind::kLossBurst: {
      auto& v = target.loss_probs;
      if (const auto it = std::find(v.begin(), v.end(), event.value); it != v.end()) v.erase(it);
      break;
    }
  }
  apply(target, event.kind);
}

void FaultInjector::apply(Target& target, FaultKind kind) {
  net::Link& link = *target.link;
  switch (kind) {
    case FaultKind::kLinkDown:
      if (target.down_windows > 0) {
        link.fault_down();
      } else {
        link.fault_up();
      }
      break;
    case FaultKind::kQueueFreeze:
      link.fault_set_frozen(target.freeze_windows > 0);
      break;
    case FaultKind::kRateDegrade:
      link.fault_set_rate_factor(composed_rate_factor(target.rate_factors));
      break;
    case FaultKind::kDelayDegrade:
      link.fault_set_extra_propagation(composed_extra_delay(target.delay_extras));
      break;
    case FaultKind::kLossBurst: {
      const double p = composed_loss_probability(target.loss_probs);
      link.fault_set_loss(p, p > 0.0 ? &loss_rng_ : nullptr);
      break;
    }
  }
}

void FaultInjector::audit(check::AuditReport& report) const {
  for (const auto& [name, target] : targets_) {
    const net::Link& link = *target.link;
    if ((target.down_windows > 0) != link.fault_is_down()) {
      report.violation("link '" + name + "': " + std::to_string(target.down_windows) +
                       " active down windows but fault_is_down() is " +
                       (link.fault_is_down() ? "true" : "false"));
    }
    if ((target.freeze_windows > 0) != link.fault_is_frozen()) {
      report.violation("link '" + name + "': " + std::to_string(target.freeze_windows) +
                       " active freeze windows but fault_is_frozen() is " +
                       (link.fault_is_frozen() ? "true" : "false"));
    }
    if (composed_rate_factor(target.rate_factors) != link.fault_rate_factor()) {
      report.violation("link '" + name + "': composed rate factor " +
                       std::to_string(composed_rate_factor(target.rate_factors)) +
                       " != link's " + std::to_string(link.fault_rate_factor()));
    }
    if (composed_extra_delay(target.delay_extras) != link.fault_extra_propagation()) {
      report.violation("link '" + name + "': composed extra delay disagrees with link state");
    }
    if (composed_loss_probability(target.loss_probs) != link.fault_loss_probability()) {
      report.violation("link '" + name + "': composed loss probability " +
                       std::to_string(composed_loss_probability(target.loss_probs)) +
                       " != link's " + std::to_string(link.fault_loss_probability()));
    }
  }
  if (totals_.recoveries_fired > totals_.onsets_fired) {
    report.violation("more recoveries fired (" + std::to_string(totals_.recoveries_fired) +
                     ") than onsets (" + std::to_string(totals_.onsets_fired) + ")");
  }
  if (totals_.onsets_fired > totals_.events_armed) {
    report.violation("more onsets fired (" + std::to_string(totals_.onsets_fired) +
                     ") than events armed (" + std::to_string(totals_.events_armed) + ")");
  }
}

}  // namespace rbs::fault
