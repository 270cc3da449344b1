// Tests for the scheduler's wire lanes.
//
// A lane item must behave exactly like an event scheduled at the moment it
// was pushed: it reserves its sequence number then, so a run that puts
// items on lanes fires in the same order as one that schedules every item
// as its own schedule_at event. The property test below drives both forms
// through the same self-extending random script, on both ready-queue
// backends, and compares the full transcripts (ids, times, pending counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "check/auditor.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace rbs::sim {
namespace {

using namespace rbs::sim::literals;

struct Firing {
  std::uint64_t id;
  std::int64_t t_ps;
  std::size_t pending;
  bool operator==(const Firing& other) const = default;
};

/// One run of the random script. With `as_events`, lane items are emulated
/// by plain schedule_at events (the reference); otherwise they go on lanes.
class Script {
 public:
  Script(SchedulerBackend backend, std::uint64_t seed, bool as_events)
      : sched_{backend}, rng_{seed}, as_events_{as_events} {
    // Wire delays from zero (every item ties with its launch time) to
    // beyond a wheel bucket.
    for (const std::int64_t us : {0, 1, 5, 50, 200, 5'000}) {
      lane_delay_us_.push_back(us);
      lanes_.push_back(sched_.add_lane(this, &Script::deliver, EventClass::kLinkPropagation));
    }
    if (!as_events_) {
      sched_.set_audit_hook(7, [this] {
        check::AuditReport report;
        sched_.audit(report);
        if (!report.clean() && audit_failure_.empty()) audit_failure_ = report.messages().front();
      });
    }
    for (int i = 0; i < 16; ++i) spawn();
  }

  std::vector<Firing> run() {
    sched_.run();
    return fired_;
  }

  [[nodiscard]] const std::string& audit_failure() const { return audit_failure_; }
  [[nodiscard]] const Scheduler& scheduler() const { return sched_; }

 private:
  static void deliver(void* self, const void* payload) {
    std::uint64_t id = 0;
    std::memcpy(&id, payload, sizeof id);
    static_cast<Script*>(self)->fire(id);
  }

  void fire(std::uint64_t id) {
    fired_.push_back(Firing{id, sched_.now().ps(), sched_.pending_events()});
    const auto children = rng_.uniform_int(0, 3);
    for (std::int64_t i = 0; i < children; ++i) spawn();
    // Cancel one of the latest timers (likely still pending) often enough
    // that reaps sweep queues holding lane heads.
    if (!timers_.empty() && rng_.bernoulli(0.5)) {
      const auto back = std::min<std::int64_t>(31, static_cast<std::int64_t>(timers_.size()) - 1);
      timers_[timers_.size() - 1 - static_cast<std::size_t>(rng_.uniform_int(0, back))].cancel();
    }
  }

  /// Adds one event or lane item, times quantized to microseconds so that
  /// equal-time ties are common.
  void spawn() {
    if (budget_-- <= 0) return;
    const std::uint64_t id = next_id_++;
    if (rng_.bernoulli(0.4)) {
      const SimTime t = sched_.now() + SimTime::microseconds(rng_.uniform_int(0, 300));
      timers_.push_back(sched_.schedule_at(t, [this, id] { fire(id); }));
      return;
    }
    const auto lane = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(lanes_.size()) - 1));
    std::int64_t delay_us = lane_delay_us_[lane];
    const double kind = rng_.uniform();
    if (kind < 0.15) {
      delay_us = rng_.uniform_int(0, delay_us);  // shrunk: may overtake the wire
    } else if (kind < 0.3) {
      delay_us += rng_.uniform_int(0, 100);  // grown
    }
    const SimTime t = sched_.now() + SimTime::microseconds(delay_us);
    if (as_events_) {
      sched_.schedule_at(t, [this, id] { fire(id); }, EventClass::kLinkPropagation);
    } else {
      sched_.lane_push(lanes_[lane], t, id);
    }
  }

  Scheduler sched_;
  Rng rng_;
  bool as_events_;
  std::vector<std::int64_t> lane_delay_us_;
  std::vector<Scheduler::LaneId> lanes_;
  std::vector<Scheduler::EventHandle> timers_;
  std::vector<Firing> fired_;
  std::uint64_t next_id_{0};
  std::int64_t budget_{20'000};
  std::string audit_failure_;
};

TEST(Lanes, FireInTheOrderOfOneEventPerItem) {
  for (const auto backend : {SchedulerBackend::kHeap, SchedulerBackend::kWheel}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      Script reference{backend, seed, /*as_events=*/true};
      Script lanes{backend, seed, /*as_events=*/false};
      const auto want = reference.run();
      const auto got = lanes.run();
      const std::string where = std::string{"backend "} + scheduler_backend_name(backend) +
                                " seed " + std::to_string(seed);
      ASSERT_GT(want.size(), 10'000u) << where;
      ASSERT_EQ(got.size(), want.size()) << where;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << where << ": transcripts diverge at firing " << i;
      }
      EXPECT_EQ(lanes.scheduler().executed_events(), reference.scheduler().executed_events())
          << where;
      EXPECT_TRUE(lanes.audit_failure().empty()) << where << ": " << lanes.audit_failure();
    }
  }
}

struct Counter {
  int delivered{0};
  static void deliver(void* self, const void* /*payload*/) {
    ++static_cast<Counter*>(self)->delivered;
  }
};

TEST(Lanes, PendingEventsCountLaneItems) {
  Scheduler sched;
  Counter counter;
  const auto lane = sched.add_lane(&counter, &Counter::deliver, EventClass::kLinkPropagation);
  sched.schedule_at(5_ms, [] {});
  for (int i = 1; i <= 3; ++i) sched.lane_push(lane, SimTime::milliseconds(i), i);
  EXPECT_EQ(sched.pending_events(), 4u);
  EXPECT_EQ(sched.queue_entries(), 2u) << "only the lane's head sits in the ready queue";
  sched.run_until(2_ms);
  EXPECT_EQ(sched.pending_events(), 2u);
  EXPECT_EQ(counter.delivered, 2);
  sched.run();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.executed_events(), 4u);
  EXPECT_EQ(counter.delivered, 3);
}

TEST(Lanes, AuditReportsAnUnsortedLane) {
  Scheduler sched;
  Counter counter;
  const auto lane = sched.add_lane(&counter, &Counter::deliver, EventClass::kLinkPropagation);
  for (int i = 1; i <= 3; ++i) sched.lane_push(lane, SimTime::milliseconds(i), i);
  {
    check::AuditReport report;
    sched.audit(report);
    ASSERT_TRUE(report.clean()) << report.messages().front();
  }
  sched.corrupt_lane_order_for_test(lane);
  check::AuditReport report;
  sched.audit(report);
  ASSERT_FALSE(report.clean());
  EXPECT_NE(report.messages().front().find("not sorted"), std::string::npos)
      << report.messages().front();
}

/// A lane whose owner pushes onto its own lane while an item is being
/// delivered: the popped item's successor is not armed yet at that point,
/// so an item pushed ahead of it overtakes an unarmed node. With
/// `as_events`, every item is a schedule_at event instead (the reference).
class SelfFeedingLane {
 public:
  SelfFeedingLane(SchedulerBackend backend, bool as_events)
      : sched_{backend}, as_events_{as_events} {
    lane_ = sched_.add_lane(this, &SelfFeedingLane::deliver, EventClass::kLinkPropagation);
    sched_.set_audit_hook(1, [this] {
      check::AuditReport report;
      sched_.audit(report);
      if (!report.clean() && audit_failure_.empty()) audit_failure_ = report.messages().front();
    });
    push(1, 10_us);
    push(2, 20_us);
    push(3, 20_us);
    sched_.schedule_at(20_us, [this] { record(100); });
  }

  std::vector<Firing> run() {
    sched_.run();
    return fired_;
  }
  [[nodiscard]] const std::string& audit_failure() const { return audit_failure_; }

 private:
  static void deliver(void* self, const void* payload) {
    std::uint64_t id = 0;
    std::memcpy(&id, payload, sizeof id);
    static_cast<SelfFeedingLane*>(self)->fire(id);
  }

  void fire(std::uint64_t id) {
    record(id);
    switch (id) {
      case 1:          // at 10 us; items 2 and 3 wait at 20 us, unarmed
        push(4, 15_us);  // overtakes the unarmed item 2
        push(5, 20_us);  // ties with 2 and 3 and the plain event: fires last of them
        push(6, 40_us);  // appends
        break;
      case 4:          // at 15 us
        push(7, 15_us);  // due now, still ahead of item 2
        push(8, 12_us);  // in the past: clamped to now, after item 7
        break;
      case 2:          // at 20 us
        push(9, 20_us);  // due now, after every earlier-pushed 20 us item
        break;
      default:
        break;
    }
  }

  void record(std::uint64_t id) {
    fired_.push_back(Firing{id, sched_.now().ps(), sched_.pending_events()});
  }

  void push(std::uint64_t id, SimTime t) {
    if (as_events_) {
      sched_.schedule_at(t, [this, id] { fire(id); }, EventClass::kLinkPropagation);
    } else {
      sched_.lane_push(lane_, t, id);
    }
  }

  Scheduler sched_;
  bool as_events_;
  Scheduler::LaneId lane_{0};
  std::vector<Firing> fired_;
  std::string audit_failure_;
};

TEST(Lanes, OwnerPushesDuringDeliveryIncludingAnOvertakeOfTheUnarmedNext) {
  for (const auto backend : {SchedulerBackend::kHeap, SchedulerBackend::kWheel}) {
    const std::string where = std::string{"backend "} + scheduler_backend_name(backend);
    SelfFeedingLane reference{backend, /*as_events=*/true};
    SelfFeedingLane lanes{backend, /*as_events=*/false};
    const auto want = reference.run();
    const auto got = lanes.run();
    std::vector<std::uint64_t> order;
    for (const Firing& f : want) order.push_back(f.id);
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 4, 7, 8, 2, 3, 100, 5, 9, 6})) << where;
    EXPECT_EQ(got, want) << where;
    EXPECT_TRUE(lanes.audit_failure().empty()) << where << ": " << lanes.audit_failure();
  }
}

}  // namespace
}  // namespace rbs::sim
