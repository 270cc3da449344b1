// Tests for PacketRing, the packet FIFO behind every queue discipline.
//
// The ring must behave exactly like the std::deque<Packet> it replaces: a
// seeded differential run drives both through the same mixed operations,
// across many growths and wraparounds, and compares them after every step.
#include "net/packet_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>

#include "sim/random.hpp"

namespace rbs::net {
namespace {

Packet packet(std::int64_t seq) {
  Packet p;
  p.flow = static_cast<FlowId>(seq % 7);
  p.seq = seq;
  p.size_bytes = static_cast<std::int32_t>(40 + seq % 1460);
  return p;
}

void expect_same(const PacketRing& ring, const std::deque<Packet>& ref) {
  ASSERT_EQ(ring.size(), ref.size());
  ASSERT_EQ(ring.empty(), ref.empty());
  if (ref.empty()) return;
  EXPECT_EQ(ring.front().seq, ref.front().seq);
  EXPECT_EQ(ring.back().seq, ref.back().seq);
}

TEST(PacketRing, EmptyRingOwnsNoBuffer) {
  const PacketRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 0u);
}

TEST(PacketRing, GrowsByDoublingAndKeepsFifoOrder) {
  PacketRing ring;
  for (std::int64_t i = 0; i < 100; ++i) ring.push_back(packet(i));
  EXPECT_EQ(ring.capacity(), 128u);
  std::int64_t expect = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) EXPECT_EQ(ring[i].seq, expect++);
  EXPECT_EQ(expect, 100);
  for (std::int64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(ring.front().seq, i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 128u);  // the buffer is kept for reuse
}

TEST(PacketRing, MatchesDequeUnderRandomMixedOperations) {
  PacketRing ring;
  std::deque<Packet> ref;
  sim::Rng rng{20240601};
  std::int64_t next_seq = 0;
  std::size_t max_size = 0;
  for (int op = 0; op < 100'000; ++op) {
    // Phases that lean towards pushing and towards popping, so the ring
    // grows several times and its head wraps around the buffer often.
    const bool filling = (op / 5'000) % 2 == 0;
    const double r = rng.uniform();
    if (ref.empty() || r < (filling ? 0.6 : 0.4)) {
      ring.push_back(packet(next_seq));
      ref.push_back(packet(next_seq));
      ++next_seq;
    } else if (r < (filling ? 0.85 : 0.8)) {
      ring.pop_front();
      ref.pop_front();
    } else {
      ring.pop_back();
      ref.pop_back();
    }
    max_size = std::max(max_size, ref.size());
    expect_same(ring, ref);
    if (op % 997 == 0) {
      ASSERT_EQ(ring.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ring[i].seq, ref[i].seq) << "op " << op << " index " << i;
        ASSERT_EQ(ring[i].size_bytes, ref[i].size_bytes);
      }
    }
  }
  EXPECT_GT(max_size, 64u);  // several doublings happened
  EXPECT_GE(ring.capacity(), max_size);
}

}  // namespace
}  // namespace rbs::net
