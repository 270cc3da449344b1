// Trace-driven workload: replay an empirical list of (arrival time, flow
// size) records through the simulator.
//
// This is how an operator would evaluate buffer candidates against *their*
// traffic instead of a synthetic model: export flow records from NetFlow or
// a packet capture, convert to the trace format, replay at any buffer size.
//
// Trace format (text, one flow per line, '#' comments):
//   <arrival_seconds> <size_packets>
// Records need not be sorted; the loader sorts by arrival time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "stats/fct_tracker.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"

namespace rbs::traffic {

/// One flow of a trace.
struct TraceRecord {
  double arrival_sec{0.0};
  std::int64_t size_packets{1};
};

/// Parses the trace text format. Throws std::runtime_error on malformed
/// input (line number included). Records are returned sorted by arrival.
[[nodiscard]] std::vector<TraceRecord> parse_trace(const std::string& text);

/// Reads and parses a trace file. Throws std::runtime_error if unreadable.
[[nodiscard]] std::vector<TraceRecord> load_trace_file(const std::string& path);

/// Renders records in the trace format (for writing synthetic traces).
[[nodiscard]] std::string format_trace(const std::vector<TraceRecord>& records);

struct TraceWorkloadConfig {
  tcp::TcpConfig tcp{};
  tcp::TcpSinkConfig sink{};
  net::FlowId first_flow_id{3'000'000};
  /// Restrict to leaves [leaf_offset, leaf_offset + leaf_count);
  /// leaf_count == 0 means all leaves. Flows are assigned round-robin.
  int leaf_offset{0};
  int leaf_count{0};
  /// Multiply all arrival times (2.0 = replay at half speed).
  double time_scale{1.0};
};

/// Launches each trace record as a TCP flow at its arrival time.
class TraceWorkload {
 public:
  /// `records` is copied; the workload owns its schedule.
  TraceWorkload(sim::Simulation& sim, net::Dumbbell& topo, std::vector<TraceRecord> records,
                TraceWorkloadConfig config);
  ~TraceWorkload();

  TraceWorkload(const TraceWorkload&) = delete;
  TraceWorkload& operator=(const TraceWorkload&) = delete;

  [[nodiscard]] std::size_t flows_in_trace() const noexcept { return records_.size(); }
  [[nodiscard]] std::uint64_t flows_started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t flows_completed() const noexcept { return completed_; }
  [[nodiscard]] std::size_t flows_active() const noexcept { return active_.size(); }
  [[nodiscard]] const stats::FctTracker& completions() const noexcept { return fct_; }

  /// Flow-accounting conservation (started == completed + active, started
  /// never exceeds the trace length) plus per-flow audits in ascending
  /// flow-id order for deterministic reports.
  void audit(check::AuditReport& report) const;

 private:
  struct ActiveFlow {
    std::unique_ptr<tcp::TcpSource> source;
    std::unique_ptr<tcp::TcpSink> sink;
  };

  void launch(std::size_t index);
  void reap(net::FlowId flow);

  sim::Simulation& sim_;
  net::Dumbbell& topo_;
  TraceWorkloadConfig config_;
  std::vector<TraceRecord> records_;

  /// Ordered so audit/teardown iteration is hash-layout independent
  /// (rbs-analyze rule R2).
  std::map<net::FlowId, ActiveFlow> active_;
  std::vector<sim::Scheduler::EventHandle> launches_;
  std::uint64_t started_{0};
  std::uint64_t completed_{0};
  stats::FctTracker fct_;
};

}  // namespace rbs::traffic
