// Token-bucket traffic shaper.
//
// The Stanford production experiment (§5.3) throttled a router to 20 Mb/s;
// this is the standard mechanism for doing that. The shaper paces packets to
// `rate` with up to `burst` bytes of credit; serialization still happens
// at the downstream link, the shaper only schedules departures.
#pragma once

#include <cstdint>
#include <string>

#include "core/units.hpp"
#include "net/packet.hpp"
#include "net/packet_ring.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {

/// Rate-limits a packet stream, queueing (and beyond a limit, dropping)
/// non-conforming packets.
class TokenBucketShaper final : public PacketSink {
 public:
  struct Config {
    core::BitsPerSec rate{core::BitsPerSec{1e6}};
    core::Bytes burst{core::Bytes{3000}};   ///< bucket depth
    std::int64_t queue_limit_packets{1000}; ///< shaper queue
  };

  TokenBucketShaper(sim::Simulation& sim, std::string name, Config config,
                    PacketSink& downstream);

  void receive(const Packet& p) override;

  [[nodiscard]] std::int64_t queue_packets() const noexcept {
    return static_cast<std::int64_t>(queue_.size());
  }
  [[nodiscard]] std::uint64_t packets_forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] std::uint64_t packets_dropped() const noexcept { return dropped_; }
  [[nodiscard]] double tokens_bytes() const noexcept { return tokens_; }

 private:
  void refill() noexcept;
  void drain();
  void forward(const Packet& p);

  sim::Simulation& sim_;
  std::string name_;
  Config config_;
  PacketSink& downstream_;

  double tokens_;  ///< bytes of credit
  sim::SimTime last_refill_{};
  PacketRing queue_;
  sim::Scheduler::EventHandle drain_event_;
  std::uint64_t forwarded_{0};
  std::uint64_t dropped_{0};
};

}  // namespace rbs::net
