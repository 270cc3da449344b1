// Packet event tracing — the sim equivalent of tcpdump.
//
// Attach a tracer to any set of links and it records delivery/drop events
// (optionally filtered by flow) into a bounded buffer that renders as text:
//
//   12.034056 DLV bottleneck_fwd flow=3 seq=1042 DATA 1000B
//   12.034102 DRP bottleneck_fwd flow=7 seq=990  DATA 1000B
//
// Tracers compose with existing link hooks (they chain, not replace).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {

/// Records per-packet link events for offline inspection.
class PacketTracer {
 public:
  enum class Event : std::uint8_t { kDeliver, kDrop };

  struct Record {
    sim::SimTime time;
    Event event;
    std::string link;
    FlowId flow;
    std::int64_t seq;
    std::int64_t ack;
    PacketKind kind;
    std::int32_t size_bytes;
    bool retransmit;
  };

  /// What to do once `max_records` is reached: kStop counts further events
  /// without storing them (keeps the *start* of the run); kRing overwrites
  /// the oldest records (keeps the most recent window — the tcpdump-style
  /// behaviour for watching the end of a long run).
  enum class OverflowPolicy : std::uint8_t { kStop, kRing };

  /// `max_records` bounds memory; `policy` picks which side of the run
  /// survives overflow. dropped_records() counts the casualties either way.
  explicit PacketTracer(sim::Simulation& sim, std::size_t max_records = 100'000,
                        OverflowPolicy policy = OverflowPolicy::kStop)
      : sim_{sim}, max_records_{max_records ? max_records : 1}, policy_{policy} {}

  /// Starts tracing `link`. Chains with any hooks already installed.
  void attach(Link& link);

  /// Restricts recording to the given flow (may be called repeatedly to
  /// trace several flows). No filters = record everything.
  void filter_flow(FlowId flow) { flows_.insert(flow); }

  /// Stored records in time order. Returns a copy: under kRing the internal
  /// storage wraps, so the chronological view is materialized on demand.
  [[nodiscard]] std::vector<Record> records() const;
  [[nodiscard]] std::uint64_t dropped_records() const noexcept { return overflow_; }
  [[nodiscard]] OverflowPolicy policy() const noexcept { return policy_; }

  /// Events for one flow, in time order (records are already time-ordered).
  [[nodiscard]] std::vector<Record> records_for_flow(FlowId flow) const;

  /// Human-readable rendering, one line per record.
  [[nodiscard]] std::string to_text() const;

  void clear() {
    records_.clear();
    head_ = 0;
    overflow_ = 0;
  }

 private:
  void record(Event event, const std::string& link, const Packet& p);

  sim::Simulation& sim_;
  std::size_t max_records_;
  OverflowPolicy policy_;
  std::vector<Record> records_;
  std::size_t head_{0};  ///< oldest record under kRing once wrapped
  // rbs-analyze: allow(R2) -- membership filter: insert + contains only, never iterated
  std::unordered_set<FlowId> flows_;
  std::uint64_t overflow_{0};
};

}  // namespace rbs::net
