#include "net/node.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace rbs::net {
namespace {

bool flow_less(const std::pair<FlowId, Agent*>& entry, FlowId flow) noexcept {
  return entry.first < flow;
}

}  // namespace

// Checked in every build type: a second agent for a flow would otherwise be
// ignored, and its destructor would then unregister the first agent's flow.
void Host::register_agent(FlowId flow, Agent& agent) {
  const auto it = std::lower_bound(agents_.begin(), agents_.end(), flow, flow_less);
  if (it != agents_.end() && it->first == flow) {
    throw std::invalid_argument("host '" + name() + "': flow " + std::to_string(flow) +
                                " already has an agent");
  }
  agents_.insert(it, {flow, &agent});
}

void Host::unregister_agent(FlowId flow) noexcept {
  const auto it = std::lower_bound(agents_.begin(), agents_.end(), flow, flow_less);
  if (it != agents_.end() && it->first == flow) agents_.erase(it);
}

void Host::send(const Packet& p) {
  assert(uplink_ != nullptr && "host has no uplink attached");
  uplink_->receive(p);
}

void Host::receive(const Packet& p) {
  const auto it = std::lower_bound(agents_.begin(), agents_.end(), p.flow, flow_less);
  if (it == agents_.end() || it->first != p.flow) {
    ++unclaimed_;
    return;
  }
  it->second->on_packet(p);
}

void Router::add_route(NodeId dst, PacketSink& next_hop) {
  if (dst == kInvalidNode) {
    throw std::invalid_argument("router '" + name() + "': route to the invalid node id");
  }
  if (dst >= routes_.size()) routes_.resize(std::size_t{dst} + 1, nullptr);
  routes_[dst] = &next_hop;
}

void Router::receive(const Packet& p) {
  if (p.dst < routes_.size()) {
    if (PacketSink* const next_hop = routes_[p.dst]; next_hop != nullptr) {
      next_hop->receive(p);
      return;
    }
  }
  if (default_route_ != nullptr) {
    default_route_->receive(p);
    return;
  }
  ++unroutable_;
}

}  // namespace rbs::net
