#include "tcp/tcp_sink.hpp"

#include <algorithm>
#include <functional>
#include <string>

namespace rbs::tcp {

TcpSink::TcpSink(sim::Simulation& sim, net::Host& host, net::FlowId flow,
                 TcpSinkConfig config)
    : sim_{sim}, host_{host}, flow_{flow}, config_{config} {
  host_.register_agent(flow_, *this);
}

TcpSink::~TcpSink() {
  delack_timer_.cancel();
  host_.unregister_agent(flow_);
}

void TcpSink::send_ack() {
  delack_timer_.cancel();
  unacked_in_order_ = 0;

  net::Packet ack;
  ack.flow = flow_;
  ack.kind = net::PacketKind::kTcpAck;
  ack.src = host_.id();
  ack.dst = peer_;
  ack.ack = next_expected_;
  ack.size_bytes = static_cast<std::int32_t>(config_.ack_size.count());
  ack.timestamp = pending_echo_;  // echo for Karn-safe RTT sampling
  ack.ecn_ce = pending_ecn_echo_;  // ECN-Echo (simplified: per marked packet)
  ack.ecn_echo_count = pending_ecn_count_;  // exact marked count (DCTCP)
  pending_ecn_echo_ = false;
  pending_ecn_count_ = 0;
  host_.send(ack);
  ++acks_sent_;
}

void TcpSink::on_packet(const net::Packet& p) {
  if (p.kind != net::PacketKind::kTcpData) return;
  ++packets_received_;
  peer_ = p.src;
  pending_echo_ = p.timestamp;
  if (p.ecn_ce) {
    pending_ecn_echo_ = true;
    ++pending_ecn_count_;
  }

  const bool had_gap = !out_of_order_.empty();
  bool in_order = false;
  if (p.seq == next_expected_) {
    in_order = true;
    ++next_expected_;
    // Absorb any contiguous out-of-order run.
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && *it == next_expected_) {
      ++next_expected_;
      ++it;
    }
    out_of_order_.erase(out_of_order_.begin(), it);
  } else if (p.seq > next_expected_) {
    const auto it = std::lower_bound(out_of_order_.begin(), out_of_order_.end(), p.seq);
    if (it != out_of_order_.end() && *it == p.seq) {
      ++duplicates_;
    } else {
      out_of_order_.insert(it, p.seq);
    }
  } else {
    ++duplicates_;  // already delivered; spurious retransmission
  }

  if (!config_.delayed_ack) {
    send_ack();
    return;
  }

  // RFC 1122/5681 delayed ACK: out-of-order data and data that fills (or
  // shrinks) a gap are acknowledged immediately; in-order data every
  // `ack_every` packets or at the timeout, whichever comes first.
  if (!in_order || had_gap || !out_of_order_.empty()) {
    send_ack();
    return;
  }
  if (++unacked_in_order_ >= config_.ack_every) {
    send_ack();
    return;
  }
  if (!delack_timer_.pending()) {
    delack_timer_ = sim_.after(
        config_.delack_timeout,
        [this] {
          ++delack_fires_;
          send_ack();
        },
        sim::EventClass::kTcpDelayedAck);
  }
}

void TcpSink::audit(check::AuditReport& report) const {
  const auto delivered = static_cast<std::uint64_t>(next_expected_);
  if (delivered + out_of_order_.size() + duplicates_ != packets_received_) {
    report.violation("sequence continuity broken: delivered " + std::to_string(delivered) +
                     " + buffered " + std::to_string(out_of_order_.size()) + " + duplicate " +
                     std::to_string(duplicates_) + " != received " +
                     std::to_string(packets_received_));
  }
  if (std::adjacent_find(out_of_order_.begin(), out_of_order_.end(),
                         std::greater_equal<>{}) != out_of_order_.end()) {
    report.violation("out-of-order buffer is not strictly ascending");
  }
  if (!out_of_order_.empty() && out_of_order_.front() <= next_expected_) {
    report.violation("out-of-order buffer holds sequence " +
                     std::to_string(out_of_order_.front()) +
                     " at or below the cumulative-ACK point " +
                     std::to_string(next_expected_));
  }
  if (acks_sent_ > packets_received_ + delack_fires_) {
    report.violation("ACKs sent " + std::to_string(acks_sent_) +
                     " exceed data packets received " + std::to_string(packets_received_) +
                     " plus delayed-ACK fires " + std::to_string(delack_fires_));
  }
}

}  // namespace rbs::tcp
