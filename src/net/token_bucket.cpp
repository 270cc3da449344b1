#include "net/token_bucket.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace rbs::net {

TokenBucketShaper::TokenBucketShaper(sim::Simulation& sim, std::string name, Config config,
                                     PacketSink& downstream)
    : sim_{sim},
      name_{std::move(name)},
      config_{config},
      downstream_{downstream},
      tokens_{static_cast<double>(config.burst.count())},
      last_refill_{sim.now()} {
  assert(config_.rate.bps() > 0 && config_.burst.count() > 0);
}

void TokenBucketShaper::refill() noexcept {
  const double elapsed = (sim_.now() - last_refill_).to_seconds();
  last_refill_ = sim_.now();
  tokens_ = std::min(static_cast<double>(config_.burst.count()),
                     tokens_ + elapsed * config_.rate.bps() / 8.0);
}

void TokenBucketShaper::forward(const Packet& p) {
  tokens_ -= static_cast<double>(p.size_bytes);
  ++forwarded_;
  downstream_.receive(p);
}

void TokenBucketShaper::receive(const Packet& p) {
  refill();
  if (queue_.empty() && tokens_ >= static_cast<double>(p.size_bytes)) {
    forward(p);
    return;
  }
  if (static_cast<std::int64_t>(queue_.size()) >= config_.queue_limit_packets) {
    ++dropped_;
    return;
  }
  queue_.push_back(p);
  if (!drain_event_.pending()) {
    const double deficit = static_cast<double>(queue_.front().size_bytes) - tokens_;
    const double wait_sec = std::max(0.0, deficit * 8.0 / config_.rate.bps());
    drain_event_ =
        sim_.after(sim::SimTime::from_seconds(wait_sec), [this] { drain(); },
                   sim::EventClass::kWorkload);
  }
}

void TokenBucketShaper::drain() {
  refill();
  while (!queue_.empty() &&
         tokens_ >= static_cast<double>(queue_.front().size_bytes)) {
    // Forward a copy: the downstream may reach back into receive(), and a
    // push that grows the ring would move the front packet.
    const Packet p = queue_.front();
    forward(p);
    queue_.pop_front();
  }
  if (!queue_.empty()) {
    const double deficit = static_cast<double>(queue_.front().size_bytes) - tokens_;
    const double wait_sec = std::max(1e-9, deficit * 8.0 / config_.rate.bps());
    drain_event_ =
        sim_.after(sim::SimTime::from_seconds(wait_sec), [this] { drain(); },
                   sim::EventClass::kWorkload);
  }
}

}  // namespace rbs::net
