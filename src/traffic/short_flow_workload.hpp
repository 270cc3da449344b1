// Poisson-arrival short-flow workload (§4, §5.1.2).
//
// New TCP flows arrive according to a Poisson process (the paper's cited
// arrival model), draw a length from a FlowSizeDistribution, transfer it
// through the dumbbell, record their completion time, and are torn down.
// Flows are assigned to leaves round-robin; many flows can share a leaf
// concurrently (each leaf models an access network).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <map>

#include "core/units.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "stats/fct_tracker.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"
#include "traffic/flow_size.hpp"

namespace rbs::traffic {

struct ShortFlowWorkloadConfig {
  tcp::TcpConfig tcp{};
  tcp::TcpSinkConfig sink{};
  double arrivals_per_sec{10.0};
  std::uint64_t rng_stream{0x51F0};
  net::FlowId first_flow_id{1'000'000};
  sim::SimTime start{sim::SimTime::zero()};
  /// Restrict flows to leaves [leaf_offset, leaf_offset + leaf_count);
  /// leaf_count == 0 means "all leaves". Lets short flows coexist with a
  /// LongFlowWorkload that occupies the first leaves.
  int leaf_offset{0};
  int leaf_count{0};
};

/// Converts a target link load into a Poisson arrival rate:
///   λ = ρ·C / (E[len]·packet_bits).
[[nodiscard]] double arrival_rate_for_load(double load, core::BitsPerSec rate,
                                           double mean_flow_packets,
                                           core::Bytes packet_size) noexcept;

/// Generates, owns, and reaps short flows.
class ShortFlowWorkload {
 public:
  /// `sizes` must outlive the workload.
  ShortFlowWorkload(sim::Simulation& sim, net::Dumbbell& topo, FlowSizeDistribution& sizes,
                    ShortFlowWorkloadConfig config);
  ~ShortFlowWorkload();

  ShortFlowWorkload(const ShortFlowWorkload&) = delete;
  ShortFlowWorkload& operator=(const ShortFlowWorkload&) = delete;

  /// Stops launching new flows (in-progress flows run to completion).
  void stop_arrivals() noexcept { arrival_event_.cancel(); }

  /// Invoked just before a completed flow's source is destroyed, with the
  /// source still fully readable — the flow-stats hub harvests its lifetime
  /// summary (FCT, goodput, retransmits, peak cwnd) here. Null = off.
  std::function<void(const tcp::TcpSource&)> on_flow_complete;

  [[nodiscard]] const stats::FctTracker& completions() const noexcept { return fct_; }
  [[nodiscard]] stats::FctTracker& completions() noexcept { return fct_; }
  [[nodiscard]] std::uint64_t flows_started() const noexcept { return flows_started_; }
  [[nodiscard]] std::uint64_t flows_completed() const noexcept { return flows_completed_; }
  [[nodiscard]] std::size_t flows_active() const noexcept { return active_.size(); }

  /// Flow-accounting conservation (started == completed + active) plus a
  /// per-flow audit of every active source and sink, visited in ascending
  /// flow-id order so reports are deterministic.
  void audit(check::AuditReport& report) const;

 private:
  struct ActiveFlow {
    std::unique_ptr<tcp::TcpSource> source;
    std::unique_ptr<tcp::TcpSink> sink;
  };

  void schedule_next_arrival();
  void launch_flow();
  void reap_flow(net::FlowId flow);

  sim::Simulation& sim_;
  net::Dumbbell& topo_;
  FlowSizeDistribution& sizes_;
  ShortFlowWorkloadConfig config_;
  sim::Rng rng_;

  /// Keyed flow table. Ordered map, not unordered: audits and any future
  /// teardown sweep iterate it, and iteration order must not depend on hash
  /// layout (rbs-analyze rule R2).
  std::map<net::FlowId, ActiveFlow> active_;
  net::FlowId next_flow_id_;
  int next_leaf_{0};
  std::uint64_t flows_started_{0};
  std::uint64_t flows_completed_{0};
  stats::FctTracker fct_;
  sim::Scheduler::EventHandle arrival_event_;
};

}  // namespace rbs::traffic
