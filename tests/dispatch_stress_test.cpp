// Real-thread stress cross-check of the dispatch-protocol invariants the
// model checker proves on virtual threads (tests/mc/): the models explore
// every interleaving of a tiny configuration; this test hammers the real
// SweepRunner with 4 OS threads for 100 iterations so the invariants are
// also witnessed at production scale, under the OS scheduler, and under
// ThreadSanitizer (this binary is part of the TSan CI leg and verify.sh
// step 9 — the concurrency bugs the models would catch structurally, TSan
// catches dynamically here).
#include "experiment/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace {

using rbs::experiment::SweepRunner;
using rbs::experiment::WorkerDispatchStats;

constexpr int kThreads = 4;
constexpr int kIterations = 100;
constexpr std::size_t kBatch = 64;

// Claim-exactly-once under contention: every index of every batch executes
// exactly once. Checked mode makes the runner itself throw on a double or
// missed claim; the per-index counters assert it independently.
TEST(DispatchStress, ClaimExactlyOnceAcrossIterations) {
  SweepRunner runner{kThreads, /*checked=*/true};
  std::vector<std::atomic<std::uint32_t>> executions(kBatch);
  for (auto& e : executions) e.store(0, std::memory_order_relaxed);

  for (int iter = 1; iter <= kIterations; ++iter) {
    runner.run_indexed(kBatch, [&](std::size_t i) {
      executions[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(executions[i].load(std::memory_order_relaxed),
                static_cast<std::uint32_t>(iter))
          << "index " << i << " not claimed exactly once in iteration "
          << iter;
    }
  }

  const auto stats = runner.dispatch_stats();
  std::uint64_t points = 0;
  for (const WorkerDispatchStats& s : stats) points += s.points;
  EXPECT_EQ(points, static_cast<std::uint64_t>(kIterations) * kBatch);
}

// Shutdown monotonicity: once the destructor begins, no new claim is ever
// made — every point observed in flight completed before the destructor
// returned, across 100 construct/run/destroy cycles (each one exercising
// helpers in whatever state the OS scheduler left them: not yet started,
// asleep on the condition variable, or checking in a chunk).
TEST(DispatchStress, NoClaimAfterShutdown) {
  for (int iter = 0; iter < kIterations; ++iter) {
    std::atomic<bool> destroyed{false};
    std::atomic<std::uint32_t> claims{0};
    {
      SweepRunner runner{kThreads, /*checked=*/true};
      runner.run_indexed(kBatch, [&](std::size_t) {
        EXPECT_FALSE(destroyed.load(std::memory_order_relaxed))
            << "point executed after the runner's destructor returned";
        claims.fetch_add(1, std::memory_order_relaxed);
      });
    }  // ~SweepRunner: shutdown flag under the mutex, notify, join helpers
    destroyed.store(true, std::memory_order_relaxed);
    ASSERT_EQ(claims.load(std::memory_order_relaxed), kBatch);
  }
}

// Concurrent stats snapshots: dispatch_stats() may race running batches by
// contract (the copy is taken under the dispatch mutex, which a worker also
// holds while it claims a chunk and bumps its counters — the discipline
// the model in tests/mc/dispatch_stats_mc_test.cpp pins). Each per-worker
// counter is cumulative, so successive snapshots must be monotonic, and
// the final snapshot must account for every point of every batch.
TEST(DispatchStress, ConcurrentStatsSnapshotsAreMonotonic) {
  SweepRunner runner{kThreads, /*checked=*/true};
  std::atomic<bool> done{false};

  std::thread sampler{[&] {
    std::vector<WorkerDispatchStats> prev;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = runner.dispatch_stats();
      if (!prev.empty()) {
        ASSERT_EQ(snap.size(), prev.size());
        for (std::size_t w = 0; w < snap.size(); ++w) {
          EXPECT_GE(snap[w].chunks, prev[w].chunks) << "worker " << w;
          EXPECT_GE(snap[w].points, prev[w].points) << "worker " << w;
        }
      }
      prev = snap;
      std::this_thread::yield();
    }
  }};

  std::atomic<std::uint64_t> total{0};
  for (int iter = 0; iter < kIterations; ++iter) {
    runner.run_indexed(kBatch, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  done.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_EQ(total.load(std::memory_order_relaxed),
            static_cast<std::uint64_t>(kIterations) * kBatch);
  const auto stats = runner.dispatch_stats();
  std::uint64_t points = 0;
  for (const WorkerDispatchStats& s : stats) points += s.points;
  EXPECT_EQ(points, static_cast<std::uint64_t>(kIterations) * kBatch);
}

}  // namespace
