// Unit tests for Host agent dispatch and Router forwarding.
#include "net/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace rbs::net {
namespace {

class CountingAgent final : public Agent {
 public:
  void on_packet(const Packet& p) override { received.push_back(p.seq); }
  std::vector<std::int64_t> received;
};

class CountingSink final : public PacketSink {
 public:
  void receive(const Packet& p) override { received.push_back(p); }
  std::vector<Packet> received;
};

Packet make_packet(FlowId flow, NodeId dst, std::int64_t seq = 0) {
  Packet p;
  p.flow = flow;
  p.dst = dst;
  p.seq = seq;
  p.size_bytes = 100;
  return p;
}

TEST(Host, DispatchesByFlowId) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  CountingAgent a1, a2;
  host.register_agent(1, a1);
  host.register_agent(2, a2);

  host.receive(make_packet(1, 7, 10));
  host.receive(make_packet(2, 7, 20));
  host.receive(make_packet(1, 7, 11));

  EXPECT_EQ(a1.received, (std::vector<std::int64_t>{10, 11}));
  EXPECT_EQ(a2.received, (std::vector<std::int64_t>{20}));
  EXPECT_EQ(host.unclaimed_packets(), 0u);
}

TEST(Host, CountsUnclaimedPackets) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  host.receive(make_packet(99, 7));
  EXPECT_EQ(host.unclaimed_packets(), 1u);
}

TEST(Host, UnregisterStopsDispatch) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  CountingAgent a;
  host.register_agent(1, a);
  host.receive(make_packet(1, 7));
  host.unregister_agent(1);
  host.receive(make_packet(1, 7));
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(host.unclaimed_packets(), 1u);
}

TEST(Host, RejectsASecondAgentForTheSameFlow) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  CountingAgent first, second;
  host.register_agent(3, first);
  EXPECT_THROW(host.register_agent(3, second), std::invalid_argument);
  // The first registration stands: packets still reach the first agent.
  host.receive(make_packet(3, 7, 42));
  EXPECT_EQ(first.received, (std::vector<std::int64_t>{42}));
  EXPECT_TRUE(second.received.empty());
}

TEST(Host, ManyAgentsRegisterAndUnregisterInAnyOrder) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  constexpr int kAgents = 64;
  std::vector<CountingAgent> agents(kAgents);
  std::vector<FlowId> order(kAgents);
  std::iota(order.begin(), order.end(), FlowId{0});
  sim::Rng rng{11};
  const auto shuffle = [&rng](std::vector<FlowId>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(
                              rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
  };
  shuffle(order);
  for (const FlowId flow : order) host.register_agent(flow * 3, agents[flow]);
  for (FlowId flow = 0; flow < kAgents; ++flow) host.receive(make_packet(flow * 3, 7, flow));
  for (FlowId flow = 0; flow < kAgents; ++flow) {
    EXPECT_EQ(agents[flow].received, (std::vector<std::int64_t>{flow}));
  }
  host.receive(make_packet(1, 7));  // between two registered flows
  EXPECT_EQ(host.unclaimed_packets(), 1u);

  // Unregister half in a fresh random order: the rest still dispatch.
  shuffle(order);
  std::vector<bool> gone(kAgents, false);
  for (std::size_t i = 0; i < kAgents / 2; ++i) {
    host.unregister_agent(order[i] * 3);
    gone[order[i]] = true;
  }
  host.unregister_agent(1);  // never registered: a no-op
  for (FlowId flow = 0; flow < kAgents; ++flow) host.receive(make_packet(flow * 3, 7, 100));
  for (FlowId flow = 0; flow < kAgents; ++flow) {
    EXPECT_EQ(agents[flow].received.size(), gone[flow] ? 1u : 2u) << "flow " << flow * 3;
  }
  EXPECT_EQ(host.unclaimed_packets(), 1u + kAgents / 2);

  // A freed flow can be registered again.
  host.register_agent(order[0] * 3, agents[order[0]]);
  host.receive(make_packet(order[0] * 3, 7, 7));
  EXPECT_EQ(agents[order[0]].received.back(), 7);
}

TEST(Host, SendGoesToUplink) {
  sim::Simulation sim{1};
  Host host{sim, 7, "h"};
  CountingSink uplink;
  host.attach_uplink(uplink);
  host.send(make_packet(1, 9, 5));
  ASSERT_EQ(uplink.received.size(), 1u);
  EXPECT_EQ(uplink.received[0].seq, 5);
}

TEST(Router, RoutesByDestination) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink port_a, port_b;
  router.add_route(10, port_a);
  router.add_route(20, port_b);

  router.receive(make_packet(1, 10));
  router.receive(make_packet(1, 20));
  router.receive(make_packet(1, 10));

  EXPECT_EQ(port_a.received.size(), 2u);
  EXPECT_EQ(port_b.received.size(), 1u);
}

TEST(Router, DefaultRouteCatchesUnknownDestinations) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink port_a, fallback;
  router.add_route(10, port_a);
  router.set_default_route(fallback);

  router.receive(make_packet(1, 999));
  EXPECT_EQ(fallback.received.size(), 1u);
  EXPECT_EQ(router.unroutable_packets(), 0u);
}

TEST(Router, CountsUnroutableWithoutDefault) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  router.receive(make_packet(1, 999));
  EXPECT_EQ(router.unroutable_packets(), 1u);
}

TEST(Router, ExplicitRouteWinsOverDefault) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink port_a, fallback;
  router.add_route(10, port_a);
  router.set_default_route(fallback);
  router.receive(make_packet(1, 10));
  EXPECT_EQ(port_a.received.size(), 1u);
  EXPECT_TRUE(fallback.received.empty());
}

TEST(Router, RejectsARouteToTheInvalidNode) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink port;
  EXPECT_THROW(router.add_route(kInvalidNode, port), std::invalid_argument);
  router.receive(make_packet(1, kInvalidNode));
  EXPECT_EQ(router.unroutable_packets(), 1u);
}

TEST(Router, DestinationPastTheTableTakesTheDefaultOrIsUnroutable) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink port, fallback;
  router.add_route(4, port);
  // Below the highest routed id but never routed, and past the table's end.
  router.receive(make_packet(1, 2));
  router.receive(make_packet(1, 5));
  router.receive(make_packet(1, kInvalidNode));
  EXPECT_EQ(router.unroutable_packets(), 3u);

  router.set_default_route(fallback);
  router.receive(make_packet(1, 2));
  router.receive(make_packet(1, 5));
  router.receive(make_packet(1, kInvalidNode));
  router.receive(make_packet(1, 4));
  EXPECT_EQ(fallback.received.size(), 3u);
  EXPECT_EQ(port.received.size(), 1u);
  EXPECT_EQ(router.unroutable_packets(), 3u);
}

TEST(Router, LaterRouteReplacesEarlierOne) {
  sim::Simulation sim{1};
  Router router{sim, 0, "r"};
  CountingSink first, second;
  router.add_route(3, first);
  router.add_route(3, second);
  router.receive(make_packet(1, 3));
  EXPECT_TRUE(first.received.empty());
  EXPECT_EQ(second.received.size(), 1u);
}

}  // namespace
}  // namespace rbs::net
