// The benchmark's workloads: what each one simulates, how its inputs follow
// from the seed, how its simulated outputs are checked, and which per-layer
// figures a traced unit of it yields.
//
// Every call goes through the simulator's public entry points
// (experiment::run_long_flow_experiment, run_short_flow_experiment,
// run_cca_buffer_matrix, min_buffer_for_utilization with apply_cca_profile,
// SweepRunner with a SweepObserver) and reads only what they return: the
// EngineProfiler summary exported into the run's metrics snapshot and the
// TcpSourceStats. Nothing inside the simulator is instrumented.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_class.hpp"
#include "spans.hpp"

namespace perfbench {

/// `kTiny` shrinks every workload to well under a second per unit; the
/// self-test uses it to exercise the whole pipeline quickly.
enum class Scale { kFull, kTiny };

/// Engine-layer figures from profiled simulation runs (summed over runs).
struct EngineTally {
  std::array<std::uint64_t, rbs::sim::kNumEventClasses> events{};
  std::array<double, rbs::sim::kNumEventClasses> body_s{};  ///< EngineProfiler body time
  double run_s{0.0};    ///< host wall of the profiled run calls
  double setup_s{0.0};  ///< host wall of the same calls with zero simulated time
  std::uint64_t bottleneck_pkts{0};  ///< data packets delivered by the bottleneck, measured window
  std::uint64_t drops{0};            ///< bottleneck drops, measured window
  std::uint64_t acks{0};
  std::uint64_t retransmissions{0};
  std::uint64_t timeouts{0};
  std::uint64_t flows_completed{0};
  std::uint64_t delay_samples{0};    ///< raw per-packet delay samples held in memory

  void add(const EngineTally& other);
  [[nodiscard]] double body_total_s() const;
  [[nodiscard]] std::uint64_t events_total() const;
  [[nodiscard]] double body_s_of(rbs::sim::EventClass cls) const {
    return body_s[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::uint64_t events_of(rbs::sim::EventClass cls) const {
    return events[static_cast<std::size_t>(cls)];
  }
};

/// Bisection and sweep-pool figures of one traced buffer_search unit, read
/// off its spans and the pool's dispatch counters.
struct SearchTally {
  std::vector<double> probe_s;     ///< each bisection probe's span
  std::uint64_t probes_needed{0};  ///< probes a serial bisection needs for the same answers
  double critical_path_s{0.0};     ///< slowest point (one cell's whole chain)
  double busy_s{0.0};              ///< sum of point spans over all workers
  double point_self_s{0.0};        ///< point time no child span covers
  std::uint64_t chunks{0};         ///< index ranges claimed off the sweep cursor
};

/// What one unit of work produced.
struct UnitOutcome {
  std::string record;     ///< every checked simulated output, hexfloat text
  std::string violation;  ///< first physical-envelope miss; empty when none
  EngineTally engine;     ///< traced units only
  SearchTally search;     ///< traced buffer_search units only
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Worker threads one unit uses.
  [[nodiscard]] virtual int threads() const = 0;
  /// Scheduler backend the runs resolve to.
  [[nodiscard]] virtual const char* backend() const = 0;
  /// Host seconds to construct the unit's simulations: the same calls with
  /// zero simulated time (plus, for the sweep, the pool).
  [[nodiscard]] virtual double setup_once() = 0;
  /// Runs one unit. With `log` null it is the untraced, end-to-end unit;
  /// otherwise the unit is profiled and records spans under `parent`.
  [[nodiscard]] virtual UnitOutcome run_unit(SpanLog* log, int run, int parent) = 0;
};

/// Null for an unknown name. `max_threads` caps the sweep pool.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, Scale scale,
                                                      std::uint64_t seed, int max_threads);

/// FNV-1a 64 of an output record, as 16 hex digits.
[[nodiscard]] std::string digest_of(std::string_view record);

}  // namespace perfbench
