// TCP receiver: cumulative acknowledgments, with optional delayed ACKs.
//
// The default ACKs every data packet (the ns-2 sink the paper's simulations
// used). Delayed-ACK mode follows RFC 1122: acknowledge every second
// in-order packet or after a timeout, but acknowledge out-of-order arrivals
// immediately (those duplicate ACKs drive fast retransmit).
#pragma once

#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace rbs::tcp {

struct TcpSinkConfig {
  core::Bytes ack_size{core::Bytes{40}};  ///< wire size of a pure ACK
  bool delayed_ack{false};
  int ack_every{2};            ///< in-order packets per ACK when delaying
  sim::SimTime delack_timeout{sim::SimTime::milliseconds(200)};
};

/// Receives data packets of one flow, reassembles the cumulative-ack point
/// across out-of-order arrivals, and emits ACKs per the configured policy.
class TcpSink final : public net::Agent {
 public:
  /// Registers itself on `host` for `flow`.
  TcpSink(sim::Simulation& sim, net::Host& host, net::FlowId flow, TcpSinkConfig config);

  /// Immediate-ACK sink with the given ACK size (the common case).
  TcpSink(sim::Simulation& sim, net::Host& host, net::FlowId flow,
          core::Bytes ack_size = core::Bytes{40})
      : TcpSink{sim, host, flow, TcpSinkConfig{ack_size, false, 2, {}}} {}

  ~TcpSink() override;

  TcpSink(const TcpSink&) = delete;
  TcpSink& operator=(const TcpSink&) = delete;

  void on_packet(const net::Packet& p) override;

  /// Lowest sequence number not yet received — the cumulative ACK value.
  [[nodiscard]] std::int64_t next_expected() const noexcept { return next_expected_; }

  [[nodiscard]] std::uint64_t packets_received() const noexcept { return packets_received_; }
  [[nodiscard]] std::uint64_t duplicate_data_packets() const noexcept { return duplicates_; }
  [[nodiscard]] std::uint64_t acks_sent() const noexcept { return acks_sent_; }
  [[nodiscard]] std::uint64_t delayed_ack_timeouts() const noexcept { return delack_fires_; }

  /// Sequence-continuity conservation: every received data packet was
  /// delivered in order (advancing next_expected), is buffered out of order,
  /// or was a duplicate — so
  ///   next_expected + |out_of_order| + duplicates == packets_received
  /// exactly, and every buffered sequence lies strictly above the
  /// cumulative-ACK point.
  void audit(check::AuditReport& report) const;

 private:
  void send_ack();

  sim::Simulation& sim_;
  net::Host& host_;
  net::FlowId flow_;
  TcpSinkConfig config_;

  std::int64_t next_expected_{0};
  // Sequences received above the cumulative-ACK point, sorted ascending
  // and unique. Loss leaves a few holes per window, so a flat array with
  // binary-search insert beats a node per sequence.
  std::vector<std::int64_t> out_of_order_;
  std::uint64_t packets_received_{0};
  std::uint64_t duplicates_{0};
  std::uint64_t acks_sent_{0};
  std::uint64_t delack_fires_{0};

  // Delayed-ACK state.
  net::NodeId peer_{net::kInvalidNode};
  sim::SimTime pending_echo_{};
  bool pending_ecn_echo_{false};
  std::int32_t pending_ecn_count_{0};  ///< marked data packets since last ACK
  int unacked_in_order_{0};
  sim::Scheduler::EventHandle delack_timer_;
};

}  // namespace rbs::tcp
