// Unit tests for the fault layer: FaultSchedule (builders, validation, text
// format, random generation), the Link fault hooks, and FaultInjector
// overlap/recovery semantics plus its invariant audit.
#include "core/units.hpp"
#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "sim/simulation.hpp"

namespace rbs::fault {
namespace {

using namespace rbs::sim::literals;
using sim::SimTime;

// --- FaultSchedule ---------------------------------------------------------

TEST(FaultScheduleTest, BuildersValidateEagerly) {
  FaultSchedule s;
  EXPECT_THROW(s.link_down("", 1_ms, 1_ms), std::invalid_argument);
  EXPECT_THROW(s.link_down("l", 1_ms, SimTime::zero()), std::invalid_argument);
  EXPECT_THROW(s.link_down("l", SimTime::zero() - 1_ms, 1_ms), std::invalid_argument);
  EXPECT_THROW(s.rate_brownout("l", 1_ms, 1_ms, 0.0), std::invalid_argument);
  EXPECT_THROW(s.rate_brownout("l", 1_ms, 1_ms, -0.5), std::invalid_argument);
  EXPECT_THROW(s.loss_burst("l", 1_ms, 1_ms, 1.5), std::invalid_argument);
  EXPECT_THROW(s.loss_burst("l", 1_ms, 1_ms, -0.1), std::invalid_argument);
  EXPECT_THROW(s.delay_surge("l", 1_ms, 1_ms, SimTime::zero()), std::invalid_argument);
  EXPECT_THROW(s.link_flap("l", 1_ms, 1_ms, 1_ms, 0), std::invalid_argument);
  EXPECT_THROW(s.link_flap("l", 1_ms, 1_ms, SimTime::zero(), 2), std::invalid_argument);
  EXPECT_TRUE(s.empty());
}

TEST(FaultScheduleTest, FlapExpandsIntoPeriodicDownWindows) {
  FaultSchedule s;
  s.link_flap("bottleneck_fwd", 100_ms, 20_ms, 30_ms, 3);
  ASSERT_EQ(s.size(), 3u);
  for (const auto& e : s.events()) {
    EXPECT_EQ(e.kind, FaultKind::kLinkDown);
    EXPECT_EQ(e.duration, 20_ms);
  }
  EXPECT_EQ(s.events()[0].at, 100_ms);
  EXPECT_EQ(s.events()[1].at, 150_ms);  // 100 + 20 down + 30 up
  EXPECT_EQ(s.events()[2].at, 200_ms);
  EXPECT_EQ(s.horizon(), 220_ms);
}

TEST(FaultScheduleTest, ParsesTextFormatWithComments) {
  std::istringstream in(R"(# a comment line
down bottleneck_fwd 1.5 0.25
flap acc_up_0 2 0.1 0.4 2   # inline comment
rate bottleneck_fwd 0 10 0.5
delay rcv_up_1 3 2 25
loss bottleneck_fwd 4.5 0.5 0.02

freeze bottleneck_fwd 8 1
)");
  const auto s = FaultSchedule::parse(in);
  ASSERT_EQ(s.size(), 7u);  // flap expands to 2
  EXPECT_EQ(s.events()[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(s.events()[0].at, SimTime::milliseconds(1500));
  EXPECT_EQ(s.events()[0].duration, 250_ms);
  EXPECT_EQ(s.events()[1].kind, FaultKind::kLinkDown);
  EXPECT_EQ(s.events()[2].at, SimTime::milliseconds(2500));
  EXPECT_EQ(s.events()[3].kind, FaultKind::kRateDegrade);
  EXPECT_DOUBLE_EQ(s.events()[3].value, 0.5);
  EXPECT_EQ(s.events()[4].kind, FaultKind::kDelayDegrade);
  EXPECT_EQ(s.events()[4].extra, 25_ms);
  EXPECT_EQ(s.events()[5].kind, FaultKind::kLossBurst);
  EXPECT_DOUBLE_EQ(s.events()[5].value, 0.02);
  EXPECT_EQ(s.events()[6].kind, FaultKind::kQueueFreeze);
}

TEST(FaultScheduleTest, ParseErrorsNameTheLine) {
  const auto message_of = [](const std::string& text) {
    std::istringstream in(text);
    try {
      (void)FaultSchedule::parse(in);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string{};
  };
  EXPECT_NE(message_of("wibble l 1 2\n").find("line 1"), std::string::npos);
  EXPECT_NE(message_of("down l 1 2\nrate l 0 1 0\n").find("line 2"), std::string::npos);
  EXPECT_NE(message_of("down l 1\n").find("line 1"), std::string::npos);       // missing field
  EXPECT_NE(message_of("down l 1 2 extra\n").find("trailing"), std::string::npos);
  EXPECT_NE(message_of("loss l 1 2 1.5\n").find("line 1"), std::string::npos);  // p out of range
  EXPECT_NE(message_of("down l -1 2\n").find("line 1"), std::string::npos);
}

TEST(FaultScheduleTest, TextRoundTrips) {
  FaultSchedule s;
  s.link_down("a", 1500_ms, 250_ms)
      .rate_brownout("b", 2_sec, 3_sec, 0.25)
      .delay_surge("c", 1_sec, 2_sec, 40_ms)
      .loss_burst("d", 500_ms, 100_ms, 0.125)
      .queue_freeze("e", 4_sec, 1_sec);
  std::istringstream in(s.to_text());
  const auto reparsed = FaultSchedule::parse(in);
  ASSERT_EQ(reparsed.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(reparsed.events()[i].kind, s.events()[i].kind) << i;
    EXPECT_EQ(reparsed.events()[i].link, s.events()[i].link) << i;
    EXPECT_EQ(reparsed.events()[i].at, s.events()[i].at) << i;
    EXPECT_EQ(reparsed.events()[i].duration, s.events()[i].duration) << i;
    EXPECT_DOUBLE_EQ(reparsed.events()[i].value, s.events()[i].value) << i;
    EXPECT_EQ(reparsed.events()[i].extra, s.events()[i].extra) << i;
  }
}

TEST(FaultScheduleTest, ParseFileMissingThrows) {
  EXPECT_THROW((void)FaultSchedule::parse_file("/nonexistent/faults.txt"),
               std::invalid_argument);
}

TEST(FaultScheduleTest, RandomIsSeedDeterministicAndInBounds) {
  RandomFaultConfig cfg;
  cfg.links = {"bottleneck_fwd", "acc_up_0"};
  cfg.horizon_begin = 1_sec;
  cfg.horizon_end = 5_sec;
  cfg.num_events = 32;
  cfg.min_duration = 1_ms;
  cfg.max_duration = 500_ms;

  sim::Rng rng_a{42};
  sim::Rng rng_b{42};
  const auto a = FaultSchedule::random(rng_a, cfg);
  const auto b = FaultSchedule::random(rng_b, cfg);
  ASSERT_EQ(a.size(), 32u);
  EXPECT_EQ(a.to_text(), b.to_text());
  a.validate();
  for (const auto& e : a.events()) {
    EXPECT_GE(e.at, cfg.horizon_begin);
    EXPECT_LT(e.at, cfg.horizon_end);
    EXPECT_GE(e.duration, cfg.min_duration);
    EXPECT_LE(e.duration, cfg.max_duration);
  }
  sim::Rng rng_c{43};
  EXPECT_NE(FaultSchedule::random(rng_c, cfg).to_text(), a.to_text());
}

// --- Link fault hooks ------------------------------------------------------

/// Records every delivered packet with its arrival time.
class RecordingSink final : public net::PacketSink {
 public:
  explicit RecordingSink(sim::Simulation& sim) : sim_{sim} {}
  void receive(const net::Packet& p) override { arrivals_.push_back({sim_.now(), p}); }

  struct Arrival {
    SimTime time;
    net::Packet packet;
  };
  std::vector<Arrival> arrivals_;

 private:
  sim::Simulation& sim_;
};

net::Packet make_packet(std::int64_t seq, std::int32_t bytes = 1000) {
  net::Packet p;
  p.flow = 1;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

/// 1 Mb/s + 5 ms: a 1000-byte packet serializes in 8 ms, arrives at 13 ms.
class FaultLinkTest : public ::testing::Test {
 protected:
  FaultLinkTest()
      : sink_{sim_},
        link_{sim_, "l", net::Link::Config{core::BitsPerSec{1e6}, 5_ms},
              std::make_unique<net::DropTailQueue>(4), sink_} {}

  sim::Simulation sim_{1};
  RecordingSink sink_;
  net::Link link_;
};

TEST_F(FaultLinkTest, DownDropsInServiceQueuedAndArrivingPackets) {
  // Three packets: one in service, two queued.
  for (int i = 0; i < 3; ++i) link_.receive(make_packet(i));
  sim_.at(4_ms, [this] { link_.fault_down(); });
  sim_.at(10_ms, [this] { link_.receive(make_packet(99)); });  // offered while down
  sim_.run();
  EXPECT_TRUE(sink_.arrivals_.empty());
  EXPECT_EQ(link_.fault_stats().inflight_drops, 1u);  // the in-service packet
  EXPECT_EQ(link_.fault_stats().flushed_packets, 2u);
  EXPECT_EQ(link_.fault_stats().down_drops, 1u);
  EXPECT_EQ(link_.queue().size_packets(), 0);
  EXPECT_FALSE(link_.busy());
  // Queue conservation survives the flush.
  check::AuditReport report;
  link_.queue().audit(report);
  EXPECT_TRUE(report.clean()) << report.messages().front();
}

TEST_F(FaultLinkTest, DownStrandsPacketsAlreadyOnTheWire) {
  link_.receive(make_packet(0));  // serialized by 8 ms, propagating until 13 ms
  sim_.at(10_ms, [this] { link_.fault_down(); });
  sim_.run();
  EXPECT_TRUE(sink_.arrivals_.empty());
  EXPECT_EQ(link_.fault_stats().inflight_drops, 1u);
}

TEST_F(FaultLinkTest, TrafficResumesAfterRecovery) {
  sim_.at(1_ms, [this] { link_.fault_down(); });
  sim_.at(2_ms, [this] { link_.receive(make_packet(0)); });  // lost
  sim_.at(20_ms, [this] { link_.fault_up(); });
  sim_.at(25_ms, [this] { link_.receive(make_packet(1)); });
  sim_.run();
  ASSERT_EQ(sink_.arrivals_.size(), 1u);
  EXPECT_EQ(sink_.arrivals_[0].packet.seq, 1);
  EXPECT_EQ(sink_.arrivals_[0].time, 38_ms);  // 25 + 8 serialization + 5 propagation
}

TEST_F(FaultLinkTest, RateFactorSlowsSerialization) {
  link_.fault_set_rate_factor(0.5);  // 1 Mb/s -> 500 kb/s: 16 ms per packet
  link_.receive(make_packet(0));
  sim_.run();
  ASSERT_EQ(sink_.arrivals_.size(), 1u);
  EXPECT_EQ(sink_.arrivals_[0].time, 21_ms);  // 16 + 5
  link_.fault_set_rate_factor(1.0);
  EXPECT_DOUBLE_EQ(link_.fault_rate_factor(), 1.0);
  EXPECT_THROW(link_.fault_set_rate_factor(0.0), std::invalid_argument);
  EXPECT_THROW(link_.fault_set_rate_factor(-1.0), std::invalid_argument);
}

TEST_F(FaultLinkTest, ExtraPropagationDelaysDelivery) {
  link_.fault_set_extra_propagation(7_ms);
  link_.receive(make_packet(0));
  sim_.run();
  ASSERT_EQ(sink_.arrivals_.size(), 1u);
  EXPECT_EQ(sink_.arrivals_[0].time, 20_ms);  // 8 + 5 + 7
  EXPECT_THROW(link_.fault_set_extra_propagation(SimTime::zero() - 1_ms),
               std::invalid_argument);
}

TEST_F(FaultLinkTest, ShrinkingExtraPropagationLetsLaterPacketsOvertake) {
  // Packet 0 launches at 8 ms with 20 ms of extra delay (arrives 33 ms).
  // The surge ends at 12 ms, so packets 1 and 2 (launched at 16 and 24 ms)
  // overtake it on the wire. Packet 3 (500 bytes, launched at 28 ms) lands
  // at exactly 33 ms and must follow packet 0, which launched first.
  link_.fault_set_extra_propagation(20_ms);
  link_.receive(make_packet(0));
  link_.receive(make_packet(1));
  link_.receive(make_packet(2));
  link_.receive(make_packet(3, 500));
  sim_.at(12_ms, [this] { link_.fault_set_extra_propagation(SimTime::zero()); });
  sim_.run();
  ASSERT_EQ(sink_.arrivals_.size(), 4u);
  const std::vector<std::pair<std::int64_t, SimTime>> expected{
      {1, 21_ms}, {2, 29_ms}, {0, 33_ms}, {3, 33_ms}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sink_.arrivals_[i].packet.seq, expected[i].first) << "arrival " << i;
    EXPECT_EQ(sink_.arrivals_[i].time, expected[i].second) << "arrival " << i;
  }
  EXPECT_EQ(link_.fault_stats().total(), 0u);
}

TEST_F(FaultLinkTest, DownUpStrandsOnlyTheOldEpochAtItsArrivalTimes) {
  // With 20 ms extra delay, old packets 0 and 1 launch at 8 and 16 ms
  // (arriving 33 and 41 ms). The link goes down at 17 ms, killing packet 2
  // in service and flushing packet 3, and comes back at 18 ms with the
  // extra delay gone. New packets 10 and 11 launch at 26 and 34 ms and
  // arrive at 31 and 39 ms, interleaved with the stranded old ones.
  link_.fault_set_extra_propagation(20_ms);
  for (int i = 0; i < 4; ++i) link_.receive(make_packet(i));
  sim_.at(17_ms, [this] { link_.fault_down(); });
  sim_.at(18_ms, [this] {
    link_.fault_up();
    link_.fault_set_extra_propagation(SimTime::zero());
    link_.receive(make_packet(10));
    link_.receive(make_packet(11));
  });
  // In-flight drops seen just before and just after each old arrival.
  std::vector<std::uint64_t> inflight;
  for (const SimTime t : {32_ms, 34_ms, 40_ms, 42_ms}) {
    sim_.at(t, [this, &inflight] { inflight.push_back(link_.fault_stats().inflight_drops); });
  }
  sim_.run();
  ASSERT_EQ(sink_.arrivals_.size(), 2u);
  EXPECT_EQ(sink_.arrivals_[0].packet.seq, 10);
  EXPECT_EQ(sink_.arrivals_[0].time, 31_ms);
  EXPECT_EQ(sink_.arrivals_[1].packet.seq, 11);
  EXPECT_EQ(sink_.arrivals_[1].time, 39_ms);
  // Packet 2 counts at the down edge; packets 0 and 1 when they reach the
  // far end, not when the cable was cut.
  EXPECT_EQ(inflight, (std::vector<std::uint64_t>{1, 2, 2, 3}));
  EXPECT_EQ(link_.fault_stats().inflight_drops, 3u);
  EXPECT_EQ(link_.fault_stats().flushed_packets, 1u);
}

TEST_F(FaultLinkTest, CertainLossDropsEveryOfferedPacket) {
  sim::Rng rng{7};
  link_.fault_set_loss(1.0, &rng);
  for (int i = 0; i < 5; ++i) link_.receive(make_packet(i));
  sim_.run();
  EXPECT_TRUE(sink_.arrivals_.empty());
  EXPECT_EQ(link_.fault_stats().loss_drops, 5u);
  link_.fault_set_loss(0.0, nullptr);
  link_.receive(make_packet(9));
  sim_.run();
  EXPECT_EQ(sink_.arrivals_.size(), 1u);
  EXPECT_THROW(link_.fault_set_loss(2.0, &rng), std::invalid_argument);
  EXPECT_THROW(link_.fault_set_loss(0.5, nullptr), std::invalid_argument);
}

TEST_F(FaultLinkTest, FreezeStallsServiceUntilUnfrozen) {
  link_.receive(make_packet(0));  // in service; finishes normally at 8 ms
  link_.receive(make_packet(1));  // queued behind it
  sim_.at(2_ms, [this] { link_.fault_set_frozen(true); });
  sim_.at(50_ms, [this] { link_.fault_set_frozen(false); });
  sim_.run();
  ASSERT_EQ(sink_.arrivals_.size(), 2u);
  EXPECT_EQ(sink_.arrivals_[0].time, 13_ms);  // in-service packet unaffected
  EXPECT_EQ(sink_.arrivals_[1].time, 63_ms);  // dequeued at 50, +8 +5
}

// --- FaultInjector ---------------------------------------------------------

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest()
      : sink_{sim_},
        link_{sim_, "bottleneck_fwd", net::Link::Config{core::BitsPerSec{1e6}, 5_ms},
              std::make_unique<net::DropTailQueue>(4), sink_},
        injector_{sim_} {
    injector_.attach(link_);
  }

  sim::Simulation sim_{1};
  RecordingSink sink_;
  net::Link link_;
  FaultInjector injector_;
};

TEST_F(InjectorTest, ArmRejectsUnknownLinksAndDoubleAttach) {
  FaultSchedule s;
  s.link_down("no_such_link", 1_ms, 1_ms);
  EXPECT_THROW(injector_.arm(s), std::invalid_argument);
  EXPECT_THROW(injector_.attach(link_), std::invalid_argument);
  EXPECT_EQ(injector_.attached_links(), 1u);
}

TEST_F(InjectorTest, OverlappingDownWindowsKeepLinkDownUntilTheLastClears) {
  FaultSchedule s;
  s.link_down("bottleneck_fwd", 5_ms, 10_ms);   // [5, 15)
  s.link_down("bottleneck_fwd", 10_ms, 15_ms);  // [10, 25)
  injector_.arm(s);
  sim_.at(16_ms, [this] { link_.receive(make_packet(0)); });  // first window over, still down
  sim_.at(30_ms, [this] { link_.receive(make_packet(1)); });
  sim_.run();
  ASSERT_EQ(sink_.arrivals_.size(), 1u);
  EXPECT_EQ(sink_.arrivals_[0].packet.seq, 1);
  EXPECT_EQ(link_.fault_stats().down_drops, 1u);
  EXPECT_FALSE(link_.fault_is_down());
  EXPECT_EQ(injector_.totals().events_armed, 2u);
  EXPECT_EQ(injector_.totals().onsets_fired, 2u);
  EXPECT_EQ(injector_.totals().recoveries_fired, 2u);
}

TEST_F(InjectorTest, OverlappingRateWindowsComposeAndRestoreExactly) {
  FaultSchedule s;
  s.rate_brownout("bottleneck_fwd", SimTime::zero(), 10_ms, 0.5);
  s.rate_brownout("bottleneck_fwd", 5_ms, 10_ms, 0.4);
  injector_.arm(s);
  sim_.at(7_ms, [this] { EXPECT_DOUBLE_EQ(link_.fault_rate_factor(), 0.2); });
  sim_.at(12_ms, [this] { EXPECT_DOUBLE_EQ(link_.fault_rate_factor(), 0.4); });
  sim_.run();
  EXPECT_DOUBLE_EQ(link_.fault_rate_factor(), 1.0);  // bitwise restore
}

TEST_F(InjectorTest, EmitsFaultMetricsFamily) {
  FaultSchedule s;
  s.link_down("bottleneck_fwd", 1_ms, 5_ms);
  injector_.arm(s);
  sim_.at(2_ms, [this] { link_.receive(make_packet(0)); });
  sim_.run();
  const auto json = sim_.metrics().snapshot().to_json();
  EXPECT_NE(json.find("faults.events"), std::string::npos);
  EXPECT_NE(json.find("faults.drops"), std::string::npos);
}

TEST_F(InjectorTest, AuditIsCleanThroughAndAfterTheSchedule) {
  FaultSchedule s;
  s.link_down("bottleneck_fwd", 1_ms, 5_ms)
      .rate_brownout("bottleneck_fwd", 2_ms, 5_ms, 0.5)
      .loss_burst("bottleneck_fwd", 3_ms, 5_ms, 0.5)
      .queue_freeze("bottleneck_fwd", 4_ms, 5_ms)
      .delay_surge("bottleneck_fwd", 5_ms, 5_ms, 1_ms);
  injector_.arm(s);
  sim_.at(6_ms, [this] {
    check::AuditReport mid;
    injector_.audit(mid);
    EXPECT_TRUE(mid.clean()) << mid.messages().front();
  });
  sim_.run();
  check::AuditReport report;
  injector_.audit(report);
  EXPECT_TRUE(report.clean()) << report.messages().front();
  EXPECT_FALSE(link_.fault_is_down());
  EXPECT_FALSE(link_.fault_is_frozen());
  EXPECT_DOUBLE_EQ(link_.fault_loss_probability(), 0.0);
  EXPECT_EQ(link_.fault_extra_propagation(), SimTime::zero());
}

TEST_F(InjectorTest, AuditFlagsStateChangedBehindItsBack) {
  link_.fault_down();  // not driven by the injector
  check::AuditReport report;
  injector_.audit(report);
  EXPECT_FALSE(report.clean());
}

}  // namespace
}  // namespace rbs::fault
