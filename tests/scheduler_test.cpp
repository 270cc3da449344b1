// Unit tests for the discrete-event scheduler: ordering, determinism,
// cancellation, and run-until semantics.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace rbs::sim {
namespace {

using namespace rbs::sim::literals;

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(30_ms, [&] { order.push_back(3); });
  sched.schedule_at(10_ms, [&] { order.push_back(1); });
  sched.schedule_at(20_ms, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, EqualTimesFireInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, NowAdvancesToEventTime) {
  Scheduler sched;
  SimTime seen;
  sched.schedule_at(42_ms, [&] { seen = sched.now(); });
  sched.run();
  EXPECT_EQ(seen, 42_ms);
  EXPECT_EQ(sched.now(), 42_ms);
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler sched;
  SimTime seen;
  sched.schedule_at(10_ms, [&] {
    sched.schedule_after(5_ms, [&] { seen = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(seen, 15_ms);
}

TEST(Scheduler, EventsScheduledDuringRunAreExecuted) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sched.schedule_after(1_ms, recurse);
  };
  sched.schedule_at(SimTime::zero(), recurse);
  sched.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sched.now(), 99_ms);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  auto h = sched.schedule_at(10_ms, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler sched;
  auto h = sched.schedule_at(1_ms, [] {});
  sched.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
  h.cancel();
}

TEST(Scheduler, DefaultHandleIsInert) {
  Scheduler::EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // no crash
}

TEST(Scheduler, RunUntilExecutesOnlyDueEvents) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(10_ms, [&] { order.push_back(1); });
  sched.schedule_at(20_ms, [&] { order.push_back(2); });
  sched.schedule_at(30_ms, [&] { order.push_back(3); });

  const bool drained = sched.run_until(20_ms);
  EXPECT_FALSE(drained);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), 20_ms);

  EXPECT_TRUE(sched.run_until(100_ms));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 100_ms);
}

TEST(Scheduler, RunUntilWithEmptyQueueAdvancesClock) {
  Scheduler sched;
  EXPECT_TRUE(sched.run_until(77_ms));
  EXPECT_EQ(sched.now(), 77_ms);
}

TEST(Scheduler, StopHaltsRun) {
  Scheduler sched;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(SimTime::milliseconds(i), [&] {
      if (++count == 3) sched.stop();
    });
  }
  sched.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sched.pending_events(), 7u);
}

TEST(Scheduler, ExecutedEventsCountsOnlyFired) {
  Scheduler sched;
  sched.schedule_at(1_ms, [] {});
  auto h = sched.schedule_at(2_ms, [] {});
  h.cancel();
  sched.schedule_at(3_ms, [] {});
  sched.run();
  EXPECT_EQ(sched.executed_events(), 2u);
}

TEST(Scheduler, TimerRestartPattern) {
  // The TCP usage pattern: repeatedly cancel + reschedule a timer.
  Scheduler sched;
  int fired = 0;
  Scheduler::EventHandle timer;
  for (int i = 0; i < 50; ++i) {
    timer.cancel();
    timer = sched.schedule_at(SimTime::milliseconds(100 + i), [&] { ++fired; });
  }
  sched.run();
  EXPECT_EQ(fired, 1);  // only the last survives
  EXPECT_EQ(sched.now(), SimTime::milliseconds(149));
}

TEST(Scheduler, SchedulePastClampsToNow) {
  // Policy: a target time earlier than now() is clamped to now() — the
  // event still fires on the current tick, in FIFO order with other events
  // scheduled for now().
  Scheduler sched;
  std::vector<int> order;
  SimTime seen;
  sched.schedule_at(10_ms, [&] {
    order.push_back(1);
    sched.schedule_at(3_ms, [&] {  // in the past: clamps to 10 ms
      order.push_back(2);
      seen = sched.now();
    });
    sched.schedule_at(10_ms, [&] { order.push_back(3); });  // scheduled later: fires later
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(seen, 10_ms);
  EXPECT_EQ(sched.now(), 10_ms);
}

TEST(Scheduler, ScheduleAfterNegativeDelayClampsToNow) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(5_ms, [&] {
    sched.schedule_after(SimTime::zero() - 7_ms, [&] { fired = true; });
  });
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now(), 5_ms);
}

TEST(Scheduler, StaleHandleDoesNotCancelRecycledSlot) {
  // After an event fires, its pool slot is recycled for new events; a stale
  // handle (same slot, older generation) must be inert against the new one.
  Scheduler sched;
  auto stale = sched.schedule_at(1_ms, [] {});
  sched.run();
  EXPECT_FALSE(stale.pending());

  // Exercise slot reuse heavily so at least one new event lands in the
  // stale handle's slot.
  int fired = 0;
  std::vector<Scheduler::EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sched.schedule_at(2_ms, [&] { ++fired; }));
  }
  stale.cancel();  // must not disturb any of the new events
  EXPECT_FALSE(stale.pending());
  sched.run();
  EXPECT_EQ(fired, 100);
}

TEST(Scheduler, CancelDuringOwnCallbackIsNoOp) {
  Scheduler sched;
  Scheduler::EventHandle self;
  int fired = 0;
  self = sched.schedule_at(1_ms, [&] {
    ++fired;
    self.cancel();  // already firing: must be a no-op, not a double free
    EXPECT_FALSE(self.pending());
  });
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, PendingEventsCountsOnlyLiveEvents) {
  // pending_events() excludes cancelled-but-unreaped queue entries.
  Scheduler sched;
  std::vector<Scheduler::EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sched.schedule_at(SimTime::milliseconds(1 + i), [] {}));
  }
  EXPECT_EQ(sched.pending_events(), 10u);
  for (int i = 0; i < 4; ++i) handles[static_cast<std::size_t>(i)].cancel();
  EXPECT_EQ(sched.pending_events(), 6u);
  sched.run();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.executed_events(), 6u);
}

TEST(Scheduler, DeterministicEventTraceAcrossRuns) {
  // Same seed ⇒ identical (time, id) event trace, including FIFO tie-breaks
  // and a cancellation pattern driven by the seeded RNG.
  auto trace_for_seed = [](std::uint64_t seed) {
    Scheduler sched;
    Rng rng{seed};
    std::vector<std::pair<std::int64_t, int>> trace;
    std::vector<Scheduler::EventHandle> handles;
    for (int i = 0; i < 2'000; ++i) {
      const auto t = SimTime::microseconds(rng.uniform_int(0, 500));
      handles.push_back(sched.schedule_at(t, [&trace, &sched, i] {
        trace.emplace_back(sched.now().ps(), i);
      }));
    }
    for (int i = 0; i < 2'000; ++i) {
      if (rng.bernoulli(0.3)) handles[static_cast<std::size_t>(i)].cancel();
    }
    sched.run();
    return trace;
  };
  const auto a = trace_for_seed(7);
  const auto b = trace_for_seed(7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a, b);
  // Sanity: FIFO tie-break — equal times fire in schedule (id) order.
  for (std::size_t i = 1; i < a.size(); ++i) {
    ASSERT_LE(a[i - 1].first, a[i].first);
    if (a[i - 1].first == a[i].first) {
      ASSERT_LT(a[i - 1].second, a[i].second);
    }
  }
}

TEST(Scheduler, PoolReuseKeepsMemoryBounded) {
  // 1M schedule/cancel cycles (the TCP timer pattern) must recycle slots
  // instead of growing the pool or the queue: a handful of live timers
  // should never allocate more than a few slabs.
  Scheduler sched;
  Scheduler::EventHandle timer;
  for (int i = 0; i < 1'000'000; ++i) {
    timer.cancel();
    timer = sched.schedule_at(SimTime::microseconds(100 + i), [] {});
  }
  // One live timer; cancelled entries must have been reaped along the way.
  EXPECT_EQ(sched.pending_events(), 1u);
  EXPECT_LT(sched.queue_entries(), 1'000u);
  EXPECT_LT(sched.pool_capacity(), 10'000u);
  sched.run();
  EXPECT_EQ(sched.executed_events(), 1u);
}

TEST(Scheduler, OversizedCaptureFallbackWorks) {
  // Captures beyond the slot's inline storage take the heap fallback and
  // must still fire, cancel, and destruct correctly.
  Scheduler sched;
  struct Big {
    std::array<std::uint64_t, 16> payload;  // 128 bytes, > inline storage
  };
  Big big{};
  big.payload[0] = 41;
  std::uint64_t seen = 0;
  sched.schedule_at(1_ms, [big, &seen] { seen = big.payload[0] + 1; });
  auto cancelled = sched.schedule_at(2_ms, [big, &seen] { seen = big.payload[0] + 100; });
  cancelled.cancel();
  sched.run();
  EXPECT_EQ(seen, 42u);
}

TEST(Scheduler, LaneChurnReusesNodeSlabs) {
  // Packets on wires are lane nodes from one shared slab pool (they once
  // borrowed a 128-byte big slot each); 10^5 packets of steady churn across
  // 64 wires must recycle nodes instead of growing the slabs.
  struct Wire {
    Scheduler* sched;
    Scheduler::LaneId lane;
    std::uint64_t delivered;
  };
  Scheduler sched;
  std::vector<Wire> wires(64);
  for (Wire& w : wires) {
    w.sched = &sched;
    w.lane = sched.add_lane(
        &w,
        [](void* owner, const void* payload) {
          Wire& wire = *static_cast<Wire*>(owner);
          std::uint64_t hops = 0;
          std::memcpy(&hops, payload, sizeof hops);
          ++wire.delivered;
          if (hops < 400) {
            wire.sched->lane_push(wire.lane, wire.sched->now() + SimTime::microseconds(3),
                                  hops + 1);
          }
        },
        EventClass::kLinkPropagation);
    for (std::uint64_t i = 0; i < 4; ++i) {
      sched.lane_push(w.lane, SimTime::microseconds(static_cast<std::int64_t>(i)),
                      std::uint64_t{0});
    }
  }
  EXPECT_EQ(sched.pending_events(), 256u);
  sched.run();
  EXPECT_GT(sched.executed_events(), 100'000u);
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_LE(sched.lane_node_capacity(), 512u)
      << "lane node slabs grew under steady churn: recycling is broken";
  EXPECT_EQ(sched.pool_capacity(), 0u) << "lane items must not take event slots";
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler sched;
  SimTime last = SimTime::zero();
  bool monotone = true;
  for (int i = 0; i < 10'000; ++i) {
    // Pseudo-shuffled times.
    const auto t = SimTime::microseconds((i * 7919) % 10'000);
    sched.schedule_at(t, [&, t] {
      if (sched.now() < last) monotone = false;
      last = sched.now();
    });
  }
  sched.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sched.executed_events(), 10'000u);
}

}  // namespace
}  // namespace rbs::sim
