// Unit tests for the TCP sink: cumulative ACK generation and reordering.
#include "tcp/tcp_sink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "check/auditor.hpp"
#include "net/node.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace rbs::tcp {
namespace {

using namespace rbs::sim::literals;

/// Captures the sink's outgoing ACKs.
class AckCapture final : public net::PacketSink {
 public:
  void receive(const net::Packet& p) override { acks.push_back(p); }
  std::vector<net::Packet> acks;
};

class TcpSinkTest : public ::testing::Test {
 protected:
  TcpSinkTest() : host_{sim_, 5, "rcv"}, sink_{sim_, host_, 1} {
    host_.attach_uplink(capture_);
  }

  net::Packet data(std::int64_t seq, sim::SimTime ts = sim::SimTime::zero()) {
    net::Packet p;
    p.flow = 1;
    p.kind = net::PacketKind::kTcpData;
    p.src = 9;
    p.dst = 5;
    p.seq = seq;
    p.size_bytes = 1000;
    p.timestamp = ts;
    return p;
  }

  sim::Simulation sim_{1};
  net::Host host_;
  AckCapture capture_;
  TcpSink sink_;
};

TEST_F(TcpSinkTest, AcksEveryInOrderPacket) {
  for (int i = 0; i < 4; ++i) host_.receive(data(i));
  ASSERT_EQ(capture_.acks.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(capture_.acks[static_cast<std::size_t>(i)].ack, i + 1);
    EXPECT_EQ(capture_.acks[static_cast<std::size_t>(i)].kind, net::PacketKind::kTcpAck);
  }
  EXPECT_EQ(sink_.next_expected(), 4);
}

TEST_F(TcpSinkTest, OutOfOrderGeneratesDuplicateAcks) {
  host_.receive(data(0));  // ack 1
  host_.receive(data(2));  // hole at 1 -> dup ack 1
  host_.receive(data(3));  // dup ack 1
  ASSERT_EQ(capture_.acks.size(), 3u);
  EXPECT_EQ(capture_.acks[1].ack, 1);
  EXPECT_EQ(capture_.acks[2].ack, 1);
}

TEST_F(TcpSinkTest, HoleFillAdvancesCumulativelyPastBufferedData) {
  host_.receive(data(0));
  host_.receive(data(2));
  host_.receive(data(3));
  host_.receive(data(1));  // fills the hole
  ASSERT_EQ(capture_.acks.size(), 4u);
  EXPECT_EQ(capture_.acks.back().ack, 4);  // jumps over 2 and 3
  EXPECT_EQ(sink_.next_expected(), 4);
}

TEST_F(TcpSinkTest, AckDestinationIsDataSource) {
  host_.receive(data(0));
  EXPECT_EQ(capture_.acks[0].dst, 9u);
  EXPECT_EQ(capture_.acks[0].src, 5u);
  EXPECT_EQ(capture_.acks[0].flow, 1u);
}

TEST_F(TcpSinkTest, EchoesTimestampOfTriggeringPacket) {
  host_.receive(data(0, 123_ms));
  host_.receive(data(1, 456_ms));
  EXPECT_EQ(capture_.acks[0].timestamp, 123_ms);
  EXPECT_EQ(capture_.acks[1].timestamp, 456_ms);
}

TEST_F(TcpSinkTest, CountsSpuriousRetransmissions) {
  host_.receive(data(0));
  host_.receive(data(0));  // already delivered
  host_.receive(data(2));
  host_.receive(data(2));  // already buffered out-of-order
  EXPECT_EQ(sink_.duplicate_data_packets(), 2u);
  EXPECT_EQ(capture_.acks.size(), 4u);  // still ACKs every arrival
}

TEST_F(TcpSinkTest, IgnoresNonDataPackets) {
  net::Packet ack;
  ack.flow = 1;
  ack.kind = net::PacketKind::kTcpAck;
  ack.dst = 5;
  host_.receive(ack);
  EXPECT_TRUE(capture_.acks.empty());
  EXPECT_EQ(sink_.packets_received(), 0u);
}

TEST_F(TcpSinkTest, CountersTrackTraffic) {
  for (int i = 0; i < 5; ++i) host_.receive(data(i));
  EXPECT_EQ(sink_.packets_received(), 5u);
  EXPECT_EQ(sink_.acks_sent(), 5u);
}

TEST_F(TcpSinkTest, LargeReorderingWindow) {
  // Deliver 1..99 out of order, then 0; cumulative ACK must jump to 100.
  for (int i = 99; i >= 1; --i) host_.receive(data(i));
  EXPECT_EQ(sink_.next_expected(), 0);
  host_.receive(data(0));
  EXPECT_EQ(sink_.next_expected(), 100);
  EXPECT_EQ(capture_.acks.back().ack, 100);
}

/// The sink's cumulative-ACK logic over a std::set reorder buffer, as it
/// was before the buffer became a sorted vector.
struct ReferenceSink {
  std::int64_t next_expected{0};
  std::set<std::int64_t> out_of_order;
  std::uint64_t duplicates{0};

  void on_data(std::int64_t seq) {
    if (seq == next_expected) {
      ++next_expected;
      auto it = out_of_order.begin();
      while (it != out_of_order.end() && *it == next_expected) {
        ++next_expected;
        it = out_of_order.erase(it);
      }
    } else if (seq > next_expected) {
      if (!out_of_order.insert(seq).second) ++duplicates;
    } else {
      ++duplicates;
    }
  }
};

TEST_F(TcpSinkTest, ReorderBufferMatchesSetReference) {
  ReferenceSink ref;
  sim::Rng rng{77};
  std::int64_t highest = -1;
  std::uint64_t buffered_duplicates = 0;
  for (int i = 0; i < 50'000; ++i) {
    // Mostly new data with random losses (holes), plus retransmissions that
    // fill holes, duplicate a buffered sequence, or repeat delivered data.
    std::int64_t seq = 0;
    const double r = rng.uniform();
    if (r < 0.55) {
      seq = highest + 1 + (rng.bernoulli(0.1) ? rng.uniform_int(1, 3) : 0);
    } else if (r < 0.8) {
      seq = ref.next_expected;
    } else if (r < 0.95) {
      seq = ref.next_expected + rng.uniform_int(0, std::max<std::int64_t>(
                                                       0, highest - ref.next_expected));
    } else {
      seq = std::max<std::int64_t>(0, ref.next_expected - rng.uniform_int(1, 5));
    }
    highest = std::max(highest, seq);
    if (ref.out_of_order.count(seq) != 0) ++buffered_duplicates;
    ref.on_data(seq);
    host_.receive(data(seq));
    ASSERT_EQ(capture_.acks.size(), static_cast<std::size_t>(i) + 1);
    ASSERT_EQ(capture_.acks.back().ack, ref.next_expected) << "packet " << i << " seq " << seq;
    ASSERT_EQ(sink_.duplicate_data_packets(), ref.duplicates) << "packet " << i;
    if (i % 211 == 0) {
      check::AuditReport report;
      sink_.audit(report);
      ASSERT_TRUE(report.clean()) << report.messages().front();
    }
  }
  EXPECT_EQ(sink_.next_expected(), ref.next_expected);
  EXPECT_GT(ref.duplicates, 1000u);  // the script exercised duplicates,
  EXPECT_GT(buffered_duplicates, 100u);  // including ones inside the buffer
  EXPECT_GT(ref.next_expected, 10'000);
  check::AuditReport report;
  sink_.audit(report);
  EXPECT_TRUE(report.clean());
}

}  // namespace
}  // namespace rbs::tcp
