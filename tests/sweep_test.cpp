// Tests for the parallel sweep runner: deterministic ordering, bitwise
// parallel-vs-serial equivalence of experiment results, exception
// propagation, and thread-count selection.
#include "experiment/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/long_flow_experiment.hpp"
#include "experiment/short_flow_experiment.hpp"

namespace rbs::experiment {
namespace {

TEST(SweepRunner, MapReturnsResultsInIndexOrder) {
  SweepRunner runner{4};
  const auto out = runner.map<std::size_t>(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, RunsEveryPointExactlyOnce) {
  SweepRunner runner{3};
  std::vector<std::atomic<int>> hits(257);
  runner.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, EmptySweepIsANoOp) {
  SweepRunner runner{2};
  bool touched = false;
  runner.run_indexed(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(SweepRunner, SingleThreadRunsSeriallyInOrder) {
  SweepRunner runner{1};
  EXPECT_EQ(runner.threads(), 1);
  std::vector<std::size_t> order;
  runner.run_indexed(10, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(SweepRunner, PropagatesFirstException) {
  SweepRunner runner{2};
  EXPECT_THROW(runner.run_indexed(50,
                                  [&](std::size_t i) {
                                    if (i == 7) throw std::runtime_error{"boom"};
                                  }),
               std::runtime_error);
  // The pool must remain usable after a failed batch.
  const auto out = runner.map<int>(8, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(out.size(), 8u);
}

TEST(SweepRunner, ReusableAcrossBatches) {
  SweepRunner runner{2};
  for (int batch = 0; batch < 20; ++batch) {
    const auto out =
        runner.map<int>(16, [batch](std::size_t i) { return batch * 100 + static_cast<int>(i); });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], batch * 100 + static_cast<int>(i));
    }
  }
}

TEST(SweepRunner, CheckedModeVerifiesExactlyOnceExecution) {
  SweepRunner runner{3, /*checked=*/true};
  EXPECT_TRUE(runner.checked());
  std::vector<std::atomic<int>> hits(101);
  runner.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  // Checked batches still propagate point exceptions and stay reusable.
  EXPECT_THROW(runner.run_indexed(10,
                                  [](std::size_t i) {
                                    if (i == 3) throw std::runtime_error{"boom"};
                                  }),
               std::runtime_error);
  const auto out = runner.map<int>(8, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(out.size(), 8u);
}

TEST(SweepRunner, DefaultThreadsHonorsEnvVar) {
  ::setenv("RBS_THREADS", "3", 1);
  EXPECT_EQ(default_sweep_threads(), 3);
  ::unsetenv("RBS_THREADS");
  EXPECT_GE(default_sweep_threads(), 1);
}

// RBS_THREADS is parsed strictly: anything but a decimal count in
// [1, kMaxSweepThreads] throws an error that names the variable, and the
// hardware default never exceeds the cap.
TEST(SweepRunner, DefaultThreadsRejectsMalformedEnvVar) {
  const std::string over_cap = std::to_string(kMaxSweepThreads + 1);
  for (const char* bad : {"4x", "x4", "abc", " 4", "4 ", "+4", "0", "-2", "1e2", "2.5",
                          "99999999999999999999", over_cap.c_str()}) {
    ::setenv("RBS_THREADS", bad, 1);
    try {
      (void)default_sweep_threads();
      ADD_FAILURE() << "RBS_THREADS='" << bad << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("RBS_THREADS"), std::string::npos) << e.what();
    }
  }
  ::setenv("RBS_THREADS", std::to_string(kMaxSweepThreads).c_str(), 1);
  EXPECT_EQ(default_sweep_threads(), kMaxSweepThreads);
  ::setenv("RBS_THREADS", "", 1);  // empty counts as unset
  const int hardware = default_sweep_threads();
  EXPECT_GE(hardware, 1);
  EXPECT_LE(hardware, kMaxSweepThreads);
  ::unsetenv("RBS_THREADS");
}

// The constructor's count check, exercised without starting a thread.
TEST(SweepRunner, ResolveThreadsCapsExplicitCounts) {
  EXPECT_EQ(resolve_sweep_threads(1), 1);
  EXPECT_EQ(resolve_sweep_threads(kMaxSweepThreads), kMaxSweepThreads);
  EXPECT_THROW((void)resolve_sweep_threads(kMaxSweepThreads + 1), std::invalid_argument);
  EXPECT_THROW((void)resolve_sweep_threads(1 << 30), std::invalid_argument);
  ::unsetenv("RBS_THREADS");
  EXPECT_EQ(resolve_sweep_threads(0), default_sweep_threads());
  EXPECT_EQ(resolve_sweep_threads(-3), default_sweep_threads());
}

// The determinism contract: a sweep point computes bitwise the same result
// whether it runs serially or on a pool, because every point owns its
// Simulation (scheduler + forked RNG) and nothing in src/ has mutable
// global state.
TEST(SweepRunner, ParallelLongFlowSweepIsBitwiseIdenticalToSerial) {
  const std::vector<std::int64_t> buffers{10, 25, 50, 100};
  auto run_point = [&](std::size_t i) {
    LongFlowExperimentConfig cfg;
    cfg.num_flows = 8;
    cfg.buffer_packets = buffers[i];
    cfg.warmup = sim::SimTime::seconds(1);
    cfg.measure = sim::SimTime::seconds(2);
    cfg.seed = 42 + i;
    return run_long_flow_experiment(cfg);
  };

  std::vector<LongFlowExperimentResult> serial;
  for (std::size_t i = 0; i < buffers.size(); ++i) serial.push_back(run_point(i));

  SweepRunner runner{4};
  const auto parallel = runner.map<LongFlowExperimentResult>(buffers.size(), run_point);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Bitwise comparison of every scalar metric — no tolerance.
    EXPECT_EQ(std::memcmp(&serial[i].utilization, &parallel[i].utilization, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&serial[i].loss_rate, &parallel[i].loss_rate, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&serial[i].mean_queue_packets, &parallel[i].mean_queue_packets,
                          sizeof(double)),
              0);
    EXPECT_EQ(serial[i].bottleneck_drops, parallel[i].bottleneck_drops);
    EXPECT_EQ(serial[i].tcp_stats.data_packets_sent, parallel[i].tcp_stats.data_packets_sent);
    EXPECT_EQ(serial[i].tcp_stats.retransmissions, parallel[i].tcp_stats.retransmissions);
    EXPECT_EQ(serial[i].tcp_stats.timeouts, parallel[i].tcp_stats.timeouts);
  }
}

TEST(SweepRunner, ParallelShortFlowSweepIsBitwiseIdenticalToSerial) {
  const std::vector<std::int64_t> buffers{20, 60};
  auto run_point = [&](std::size_t i) {
    ShortFlowExperimentConfig cfg;
    cfg.buffer_packets = buffers[i];
    cfg.num_leaves = 10;
    cfg.warmup = sim::SimTime::seconds(1);
    cfg.measure = sim::SimTime::seconds(3);
    cfg.seed = 7;
    return run_short_flow_experiment(cfg);
  };

  std::vector<ShortFlowExperimentResult> serial;
  for (std::size_t i = 0; i < buffers.size(); ++i) serial.push_back(run_point(i));
  const auto parallel = SweepRunner{2}.map<ShortFlowExperimentResult>(buffers.size(), run_point);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(std::memcmp(&serial[i].afct_seconds, &parallel[i].afct_seconds, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&serial[i].drop_probability, &parallel[i].drop_probability,
                          sizeof(double)),
              0);
    EXPECT_EQ(serial[i].flows_completed, parallel[i].flows_completed);
    EXPECT_EQ(serial[i].queue_tail, parallel[i].queue_tail);
  }
}

std::uint64_t total_points(const std::vector<WorkerDispatchStats>& stats) {
  std::uint64_t sum = 0;
  for (const WorkerDispatchStats& s : stats) sum += s.points;
  return sum;
}

std::uint64_t total_chunks(const std::vector<WorkerDispatchStats>& stats) {
  std::uint64_t sum = 0;
  for (const WorkerDispatchStats& s : stats) sum += s.chunks;
  return sum;
}

TEST(SweepRunnerDispatchStats, OneEntryPerWorker) {
  for (int threads : {1, 2, 4}) {
    SweepRunner runner{threads};
    EXPECT_EQ(runner.dispatch_stats().size(), static_cast<std::size_t>(runner.threads()));
  }
}

TEST(SweepRunnerDispatchStats, PointsSumToBatchSizeAcrossWorkerCounts) {
  constexpr std::size_t kPoints = 513;
  for (int threads : {1, 2, 4}) {
    SweepRunner runner{threads};
    std::atomic<std::size_t> ran{0};
    runner.run_indexed(kPoints, [&](std::size_t) { ++ran; });

    const auto stats = runner.dispatch_stats();
    EXPECT_EQ(ran.load(), kPoints);
    EXPECT_EQ(total_points(stats), kPoints) << "threads=" << threads;
    // Every claimed chunk ran at least one point, and no worker can claim
    // more chunks than it ran points.
    EXPECT_GE(total_chunks(stats), 1u);
    EXPECT_LE(total_chunks(stats), total_points(stats));
  }
}

TEST(SweepRunnerDispatchStats, CountersAccumulateAcrossRepeatedSweeps) {
  SweepRunner runner{2};
  constexpr std::size_t kPoints = 100;
  constexpr int kSweeps = 5;
  std::uint64_t prev_points = 0;
  std::uint64_t prev_chunks = 0;
  for (int sweep = 1; sweep <= kSweeps; ++sweep) {
    runner.run_indexed(kPoints, [](std::size_t) {});
    const auto stats = runner.dispatch_stats();
    ASSERT_EQ(stats.size(), static_cast<std::size_t>(runner.threads()));
    // Cumulative since construction: each batch adds exactly its size.
    EXPECT_EQ(total_points(stats), kPoints * static_cast<std::uint64_t>(sweep));
    EXPECT_GT(total_points(stats), prev_points);
    EXPECT_GE(total_chunks(stats), prev_chunks);
    prev_points = total_points(stats);
    prev_chunks = total_chunks(stats);
  }
}

TEST(SweepRunnerDispatchStats, SerialRunnerAttributesEverythingToWorkerZero) {
  SweepRunner runner{1};
  runner.run_indexed(64, [](std::size_t) {});
  const auto stats = runner.dispatch_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].points, 64u);
}

}  // namespace
}  // namespace rbs::experiment
