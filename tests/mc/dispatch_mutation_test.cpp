// Mutation-kill tests: prove the dispatch protocol models have teeth.
//
// Each test flips ONE seeded, realistically-wrong variant of a protocol
// step (ProtocolMutation in dispatch_protocol.hpp — a claim or a counter
// bump outside the mutex, a shutdown flag raised outside the mutex, a
// dropped wakeup, a drain that ignores in-flight chunks) and re-runs the
// same model that passes on the unmutated protocol (dispatch_models.hpp).
// The explorer must report a violation whose schedule trace replays it in
// one execution — if a mutation survives, the models are too weak and this
// file fails the build's model-check leg.
#include <gtest/gtest.h>

#include <string>

#include "dispatch_models.hpp"

namespace {

using namespace dispatch_models;
using rbs::experiment::detail::g_protocol_mutation;
using rbs::experiment::detail::ProtocolMutation;

/// Arms one mutation for the scope of a test (single-threaded test code
/// writes it strictly before/after explore(); virtual threads only read).
class ScopedMutation {
 public:
  explicit ScopedMutation(ProtocolMutation m) { g_protocol_mutation = m; }
  ~ScopedMutation() { g_protocol_mutation = ProtocolMutation::kNone; }
};

mc::Result explore_model(void (*model)()) {
  mc::Options opts;
  opts.preemption_bound = 3;
  return mc::explore(opts, model);
}

/// Explores `model` under `mutation` and requires a violation whose message
/// contains `expected`, so the kill has the right cause. Then replays the
/// reported schedule: it must reproduce the same violation in exactly one
/// execution, which is what makes a report debuggable rather than
/// anecdotal.
void expect_killed(ProtocolMutation mutation, void (*model)(), const std::string& expected) {
  ScopedMutation arm{mutation};
  const mc::Result found = explore_model(model);
  EXPECT_TRUE(found.violation) << "mutation survived the model:\n" << found.summary();
  if (!found.violation) return;
  EXPECT_FALSE(found.trace.empty()) << "violation carries no schedule trace";
  EXPECT_NE(found.message.find(expected), std::string::npos) << found.message;

  mc::Options replay;
  for (const mc::Step& s : found.trace) {
    if (s.label.find("[effect]") == std::string::npos) replay.replay.push_back(s.thread);
  }
  const mc::Result again = mc::explore(replay, model);
  EXPECT_TRUE(again.violation) << again.summary();
  EXPECT_EQ(again.executions, 1u);
  EXPECT_EQ(again.message, found.message);
}

TEST(DispatchMutation, ClaimOutsideLockRacesAClaim) {
  expect_killed(ProtocolMutation::kClaimOutsideLock, &exactly_once_model,
                "data race on next_index");
}

TEST(DispatchMutation, CounterOutsideLockRacesASnapshot) {
  expect_killed(ProtocolMutation::kCounterOutsideLock, &stats_snapshot_model,
                "data race on counters.");
}

TEST(DispatchMutation, ShutdownOutsideLockRacesTheFlagTest) {
  expect_killed(ProtocolMutation::kShutdownOutsideLock, &shutdown_model,
                "data race on shutting_down");
}

TEST(DispatchMutation, DroppedShutdownNotifyStrandsASleepingHelper) {
  expect_killed(ProtocolMutation::kDropShutdownNotify, &shutdown_model, "deadlock");
}

TEST(DispatchMutation, DrainIgnoringInFlightRacesResultReads) {
  expect_killed(ProtocolMutation::kDrainIgnoresInFlight, &result_reads_model,
                "data race on results[");
}

// Sanity leg: with no mutation armed, every model above passes — the kills
// come from the mutations, not from over-strict models.
TEST(DispatchMutation, UnmutatedModelsAllPass) {
  ASSERT_EQ(g_protocol_mutation, ProtocolMutation::kNone);
  for (void (*model)() :
       {&exactly_once_model, &stats_snapshot_model, &shutdown_model, &result_reads_model}) {
    const mc::Result r = explore_model(model);
    EXPECT_FALSE(r.violation) << r.summary();
    EXPECT_TRUE(r.exhausted) << r.summary();
  }
}

}  // namespace
