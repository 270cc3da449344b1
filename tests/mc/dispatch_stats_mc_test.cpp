// Model pinning dispatch_stats() against a running batch.
//
// A worker bumps its counters in the same critical section as the claim
// they count, and a snapshot copies them under the same mutex
// (dispatch_stats_snapshot, which SweepRunner::dispatch_stats() calls). The
// counters are race-checked cells, so the model checks two things: no
// snapshot ever shows half a claim or a counter going backwards, and no
// counter access escapes the lock (it would be a detected data race — the
// kCounterOutsideLock mutation in dispatch_mutation_test.cpp).
#include <gtest/gtest.h>

#include "dispatch_models.hpp"

namespace {

using namespace dispatch_models;

TEST(DispatchStatsMc, SnapshotDuringBatchIsConsistentAndMonotonic) {
  mc::Options opts;
  opts.preemption_bound = 2;
  const mc::Result r = mc::explore(opts, &stats_snapshot_model);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_TRUE(r.exhausted) << r.summary();
}

}  // namespace
