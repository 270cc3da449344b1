// Tests for the packet view of a TraceSession: every link event lands on the
// link's track, and the session renders it as tcpdump-style text.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/units.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"
#include "telemetry/trace.hpp"

namespace rbs::net {
namespace {

using namespace rbs::sim::literals;
using sim::SimTime;
using telemetry::TraceEvent;
using telemetry::TraceSession;

/// Buffered events on `track`, optionally only flow `tid`.
std::vector<TraceEvent> on_track(const TraceSession& session, std::uint32_t track,
                                 std::optional<std::uint32_t> tid = std::nullopt) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : session.events()) {
    if (e.track == track && (!tid || e.tid == *tid)) out.push_back(e);
  }
  return out;
}

bool is(const char* s, std::string_view want) { return std::string_view{s} == want; }

DumbbellConfig one_leaf() {
  DumbbellConfig cfg;
  cfg.num_leaves = 1;
  cfg.access_delays = {5_ms};
  return cfg;
}

TEST(LinkTrace, BottleneckTrackMatchesLinkCounters) {
  sim::Simulation sim{1};
  TraceSession session{1 << 16};
  sim.set_trace(&session);
  DumbbellConfig cfg = one_leaf();
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.buffer_packets = 5;  // force drops during slow start
  Dumbbell topo{sim, cfg};

  tcp::TcpSink sink{sim, topo.receiver(0), 1};
  tcp::TcpSource src{sim, topo.sender(0), topo.receiver(0).id(), 1, tcp::TcpConfig{}, 200};
  src.start(SimTime::zero());
  sim.run();
  ASSERT_EQ(session.dropped_events(), 0u);

  std::uint64_t spans = 0, drops = 0;
  std::int64_t last_emit_ps = 0;
  for (const TraceEvent& e : on_track(session, session.track(topo.bottleneck().name()))) {
    // Events are appended as they happen: a span when serialization ends.
    const std::int64_t emit_ps = e.ts_ps + e.dur_ps;
    EXPECT_GE(emit_ps, last_emit_ps);
    last_emit_ps = emit_ps;
    if (e.ph == 'C') continue;  // the queue-depth counter
    EXPECT_EQ(e.tid, 1u);
    if (is(e.cat, "pkt")) {
      EXPECT_TRUE(is(e.name, "data"));
      ++spans;
    } else if (is(e.cat, "queue") && is(e.name, "drop")) {
      ++drops;
    }
  }
  EXPECT_EQ(spans, topo.bottleneck().stats().packets_delivered);
  EXPECT_EQ(drops, topo.bottleneck().queue().stats().dropped_packets);
  EXPECT_GT(drops, 0u);
}

TEST(LinkTrace, FilterByFlow) {
  sim::Simulation sim{1};
  TraceSession session{1 << 16};
  sim.set_trace(&session);
  DumbbellConfig cfg;
  cfg.num_leaves = 2;
  cfg.access_delays = {5_ms, 6_ms};
  Dumbbell topo{sim, cfg};

  tcp::TcpSink s1{sim, topo.receiver(0), 1};
  tcp::TcpSource f1{sim, topo.sender(0), topo.receiver(0).id(), 1, tcp::TcpConfig{}, 50};
  tcp::TcpSink s2{sim, topo.receiver(1), 2};
  tcp::TcpSource f2{sim, topo.sender(1), topo.receiver(1).id(), 2, tcp::TcpConfig{}, 50};
  f1.start(SimTime::zero());
  f2.start(SimTime::zero());
  sim.run();
  ASSERT_EQ(topo.bottleneck().queue().stats().dropped_packets, 0u);

  const std::uint32_t track = session.track(topo.bottleneck().name());
  const auto flow2 = on_track(session, track, 2);
  std::size_t spans = 0;
  for (const TraceEvent& e : flow2) spans += is(e.cat, "pkt") ? 1 : 0;
  EXPECT_EQ(spans, 50u);  // each of flow 2's segments crossed once, no loss
  const std::string text = session.to_text(flow2);
  EXPECT_NE(text.find("flow=2 "), std::string::npos);
  EXPECT_EQ(text.find("flow=1 "), std::string::npos);
}

TEST(LinkTrace, LinkEventsShareTheSessionWithTcpEvents) {
  sim::Simulation sim{1};
  TraceSession session{1 << 16};
  sim.set_trace(&session);
  DumbbellConfig cfg = one_leaf();
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.buffer_packets = 5;  // drops make the source emit loss-recovery events
  Dumbbell topo{sim, cfg};

  tcp::TcpSink sink{sim, topo.receiver(0), 1};
  tcp::TcpSource src{sim, topo.sender(0), topo.receiver(0).id(), 1, tcp::TcpConfig{}, 200};
  src.start(SimTime::zero());
  sim.run();
  ASSERT_EQ(session.dropped_events(), 0u);

  // Link events sit on their link's track; the source's own events ride the
  // same session with no track.
  std::size_t link_events = 0, tcp_events = 0;
  for (const TraceEvent& e : session.events()) {
    if (is(e.cat, "pkt") || is(e.cat, "queue")) {
      EXPECT_NE(e.track, 0u);
      EXPECT_FALSE(is(session.track_name(e.track), "-"));
      ++link_events;
    } else if (is(e.cat, "tcp")) {
      EXPECT_EQ(e.track, 0u);
      ++tcp_events;
    }
  }
  EXPECT_GT(link_events, 0u);
  EXPECT_GT(tcp_events, 0u);
}

TEST(LinkTrace, FullRingCountsOverwrittenEvents) {
  sim::Simulation sim{1};
  TraceSession session{10};
  sim.set_trace(&session);
  Dumbbell topo{sim, one_leaf()};
  tcp::TcpSink sink{sim, topo.receiver(0), 1};
  tcp::TcpSource src{sim, topo.sender(0), topo.receiver(0).id(), 1, tcp::TcpConfig{}, 100};
  src.start(SimTime::zero());
  sim.run();

  EXPECT_EQ(session.events().size(), 10u);
  EXPECT_GT(session.total_events(), 100u);
  EXPECT_EQ(session.dropped_events(), session.total_events() - 10);
}

TEST(LinkTrace, RingKeepsTheNewestWindow) {
  sim::Simulation sim{1};
  TraceSession session{10};
  sim.set_trace(&session);
  Dumbbell topo{sim, one_leaf()};
  tcp::TcpSink sink{sim, topo.receiver(0), 1};
  tcp::TcpSource src{sim, topo.sender(0), topo.receiver(0).id(), 1, tcp::TcpConfig{}, 100};
  src.start(SimTime::zero());
  sim.run();

  const auto events = session.events();
  ASSERT_EQ(events.size(), 10u);
  // The window is in the order the events were appended: a span is appended
  // when it ends.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ps + events[i - 1].dur_ps, events[i].ts_ps + events[i].dur_ps);
  }
  // The surviving window is the tail of the run, not its head.
  EXPECT_GT(events.front().ts_ps, 0);
  const std::string text = session.to_text();
  EXPECT_NE(text.find(std::to_string(session.dropped_events()) + " older event(s) overwritten"),
            std::string::npos);
}

TEST(LinkTrace, TextNamesLinkFlowAndSeq) {
  sim::Simulation sim{1};
  TraceSession session{4096};
  sim.set_trace(&session);
  Dumbbell topo{sim, one_leaf()};
  tcp::TcpSink sink{sim, topo.receiver(0), 1};
  tcp::TcpSource src{sim, topo.sender(0), topo.receiver(0).id(), 1, tcp::TcpConfig{}, 3};
  src.start(SimTime::zero());
  sim.run();

  const std::string text =
      session.to_text(on_track(session, session.track(topo.bottleneck().name())));
  EXPECT_NE(text.find("bottleneck_fwd"), std::string::npos);
  EXPECT_NE(text.find("flow=1"), std::string::npos);
  EXPECT_NE(text.find("seq="), std::string::npos);
  EXPECT_NE(text.find(" data "), std::string::npos);
  EXPECT_EQ(text.find("acc_"), std::string::npos);  // other links stay out
}

TEST(LinkTrace, HooksStillFireWithASessionAttached) {
  sim::Simulation sim{1};
  TraceSession session{4096};
  sim.set_trace(&session);
  Dumbbell topo{sim, one_leaf()};

  int hook_calls = 0;
  topo.bottleneck().on_delivered = [&](const Packet&) { ++hook_calls; };
  tcp::TcpSink sink{sim, topo.receiver(0), 1};
  tcp::TcpSource src{sim, topo.sender(0), topo.receiver(0).id(), 1, tcp::TcpConfig{}, 20};
  src.start(SimTime::zero());
  sim.run();

  std::size_t spans = 0;
  for (const TraceEvent& e : on_track(session, session.track(topo.bottleneck().name()))) {
    spans += is(e.cat, "pkt") ? 1 : 0;
  }
  EXPECT_EQ(hook_calls, 20);
  EXPECT_EQ(spans, 20u);
}

TEST(LinkTrace, ChromeJsonExportsTracksAsNamedProcesses) {
  sim::Simulation sim{1};
  TraceSession session{4096};
  sim.set_trace(&session);
  Dumbbell topo{sim, one_leaf()};
  tcp::TcpSink sink{sim, topo.receiver(0), 1};
  tcp::TcpSource src{sim, topo.sender(0), topo.receiver(0).id(), 1, tcp::TcpConfig{}, 3};
  src.start(SimTime::zero());
  sim.run();

  const std::string pid = std::to_string(session.track(topo.bottleneck().name()));
  const std::string json = session.to_chrome_json();
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + pid +
                      ",\"args\":{\"name\":\"bottleneck_fwd\"}}"),
            std::string::npos)
      << json.substr(0, 400);
  EXPECT_NE(json.find("\"cat\":\"pkt\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find(",\"pid\":" + pid + ",\"tid\":1"), std::string::npos);
}

TEST(LinkTrace, DetachedSessionRecordsNothing) {
  sim::Simulation sim{1};
  TraceSession session{1 << 16};
  sim.set_trace(&session);
  Dumbbell topo{sim, one_leaf()};
  tcp::TcpSink sink{sim, topo.receiver(0), 1};
  tcp::TcpSource src{sim, topo.sender(0), topo.receiver(0).id(), 1, tcp::TcpConfig{}, 100};
  src.start(SimTime::zero());
  sim.run_until(50_ms);
  const std::uint64_t traced = session.total_events();
  EXPECT_GT(traced, 0u);

  sim.set_trace(nullptr);
  sim.run();
  EXPECT_EQ(session.total_events(), traced);
  EXPECT_EQ(topo.bottleneck().stats().packets_delivered, 100u);
}

TEST(LinkTrace, ASecondSessionGetsItsOwnTracks) {
  sim::Simulation sim{1};
  Dumbbell topo{sim, one_leaf()};
  tcp::TcpSink sink{sim, topo.receiver(0), 1};
  tcp::TcpSource src{sim, topo.sender(0), topo.receiver(0).id(), 1, tcp::TcpConfig{}, 100};
  src.start(SimTime::zero());
  {
    TraceSession first{1 << 16};
    sim.set_trace(&first);
    sim.run_until(50_ms);
    sim.set_trace(nullptr);
  }
  // Tracks registered ahead of the links' own shift their ids, so a link
  // still using the first session's ids would land on these.
  TraceSession second{1 << 16};
  const std::uint32_t decoy_a = second.track("decoy-a");
  const std::uint32_t decoy_b = second.track("decoy-b");
  sim.set_trace(&second);
  sim.run();

  std::size_t bottleneck_spans = 0;
  for (const TraceEvent& e : second.events()) {
    EXPECT_NE(e.track, decoy_a);
    EXPECT_NE(e.track, decoy_b);
    if (e.ph == 'C' && is(e.cat, "queue")) {
      EXPECT_EQ(std::string{e.name}, std::string{second.track_name(e.track)} + "/qlen");
    }
    if (is(e.cat, "pkt") && is(second.track_name(e.track), "bottleneck_fwd")) ++bottleneck_spans;
  }
  EXPECT_GT(bottleneck_spans, 0u);
}

}  // namespace
}  // namespace rbs::net
