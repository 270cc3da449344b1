// Model-checked correctness of the sweep dispatch protocol.
//
// These models run the REAL protocol — the same dispatch_* functions
// sweep.cpp calls, compiled here with RBS_MODEL_CHECK so every
// SweepBatchState operation is a schedule point — on small configurations
// (1-2 helper threads, 2-3 indices) and let the explorer enumerate every
// interleaving up to the preemption bound. Asserted invariants, per the
// protocol's contract (dispatch_protocol.hpp):
//
//   * every index claimed exactly once per batch;
//   * no claim observed after shutdown, and shutdown always terminates the
//     helpers, whatever state they are in (no lost wakeup);
//   * a point's results happen-before the caller reads them after the drain
//     (the NonAtomic results array makes any missing edge a detected race);
//   * a point exception is captured and the batch still drains;
//   * back-to-back batches reuse the state safely.
//
// The mutation tests (dispatch_mutation_test.cpp) prove these models would
// actually fail if the protocol were wrong.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

#include "dispatch_models.hpp"

namespace {

using namespace dispatch_models;

mc::Result explore_model(void (*model)(), int preemption_bound) {
  mc::Options opts;
  opts.preemption_bound = preemption_bound;
  return mc::explore(opts, model);
}

void expect_passes(const mc::Result& r) {
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_TRUE(r.exhausted) << r.summary();
}

TEST(DispatchProtocolMc, EveryIndexClaimedExactlyOnce) {
  expect_passes(explore_model(&exactly_once_model, 2));
}

// Exhausting this model is the "no lost wakeup" acceptance item.
TEST(DispatchProtocolMc, ShutdownTerminatesHelpersFromEveryState) {
  expect_passes(explore_model(&shutdown_model, 3));
}

// Shutdown right after a batch: the helper may still be checking in its
// chunk, going back to sleep, or asleep again. It terminates in every
// interleaving, and the batch's counts are final.
TEST(DispatchProtocolMc, ShutdownAfterABatchTerminatesHelpers) {
  expect_passes(explore_model(
      [] {
        NamedState st{2};
        const PointFn fn = [](std::size_t, int) {};
        auto helper = spawn_helper(st, 1);
        mc::require(run_batch(st, fn, 2, 1) == nullptr, "unexpected captured error");
        dispatch_shutdown(st);
        mc::join(helper);
        const auto stats = dispatch_stats_snapshot(st);
        mc::require(stats[0].points + stats[1].points == 2, "claims lost or doubled");
      },
      2));
}

TEST(DispatchProtocolMc, ResultsArePublishedBeforeTheyAreRead) {
  expect_passes(explore_model(&result_reads_model, 2));
}

// Two helpers and three indices (3 virtual threads): claim-exactly-once
// must survive the three-way race for the cursor.
TEST(DispatchProtocolMc, ThreeWorkersThreeIndicesExactlyOnce) {
  expect_passes(explore_model(
      [] {
        NamedState st{3};
        int runs[3] = {0, 0, 0};
        const PointFn fn = [&](std::size_t i, int) { ++runs[i]; };
        auto h1 = spawn_helper(st, 1);
        auto h2 = spawn_helper(st, 2);

        mc::require(run_batch(st, fn, 3, 1) == nullptr, "unexpected captured error");
        for (int i = 0; i < 3; ++i) {
          mc::require(runs[i] == 1, "index not executed exactly once");
        }
        dispatch_shutdown(st);
        mc::join(h1);
        mc::join(h2);
      },
      1));
}

// A throwing point: the exception is captured, later indices are skipped
// by moving the cursor to the end, and the batch still drains cleanly
// under every interleaving.
TEST(DispatchProtocolMc, PointExceptionIsCapturedOnceAndBatchDrains) {
  expect_passes(explore_model(
      [] {
        NamedState st{2};
        const PointFn fn = [](std::size_t i, int) {
          if (i == 0) throw std::runtime_error("point failed");
        };
        auto helper = spawn_helper(st, 1);
        mc::require(run_batch(st, fn, 2, 1) != nullptr, "point exception was dropped");
        dispatch_shutdown(st);
        mc::join(helper);
      },
      2));
}

// Two consecutive batches through the same state: the close/reuse path
// (null point between batches, cursor reset on publish) holds under every
// interleaving of the second publish with a helper still finishing the
// first.
TEST(DispatchProtocolMc, BackToBackBatchesReuseStateSafely) {
  expect_passes(explore_model(
      [] {
        NamedState st{2};
        int runs_a[2] = {0, 0};
        int runs_b[2] = {0, 0};
        const PointFn fa = [&](std::size_t i, int) { ++runs_a[i]; };
        const PointFn fb = [&](std::size_t i, int) { ++runs_b[i]; };
        auto helper = spawn_helper(st, 1);

        mc::require(run_batch(st, fa, 2, 1) == nullptr, "batch A error");
        mc::require(run_batch(st, fb, 2, 1) == nullptr, "batch B error");
        mc::require(runs_a[0] == 1 && runs_a[1] == 1, "batch A index not exactly once");
        mc::require(runs_b[0] == 1 && runs_b[1] == 1, "batch B index not exactly once");

        dispatch_shutdown(st);
        mc::join(helper);
      },
      1));
}

}  // namespace
