// Tests for the experiment runners: determinism, measurement plumbing, and
// the buffer-search helpers. Scaled-down links keep each run fast.
#include <gtest/gtest.h>

#include <stdexcept>

#include "experiment/long_flow_experiment.hpp"
#include "experiment/mixed_flow_experiment.hpp"
#include "experiment/short_flow_experiment.hpp"

namespace rbs::experiment {
namespace {

using sim::SimTime;

LongFlowExperimentConfig fast_long(int flows, std::int64_t buffer) {
  LongFlowExperimentConfig cfg;
  cfg.num_flows = flows;
  cfg.buffer_packets = buffer;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.warmup = SimTime::seconds(5);
  cfg.measure = SimTime::seconds(10);
  return cfg;
}

TEST(LongFlowExperiment, RejectsZeroFlows) {
  EXPECT_THROW(run_long_flow_experiment(fast_long(0, 20)), std::invalid_argument);
  EXPECT_THROW(run_long_flow_experiment(fast_long(-3, 20)), std::invalid_argument);
}

TEST(LongFlowExperiment, DeterministicForSameSeed) {
  const auto a = run_long_flow_experiment(fast_long(10, 30));
  const auto b = run_long_flow_experiment(fast_long(10, 30));
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_DOUBLE_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.bottleneck_drops, b.bottleneck_drops);
}

TEST(LongFlowExperiment, SeedChangesOutcome) {
  auto cfg = fast_long(10, 30);
  const auto a = run_long_flow_experiment(cfg);
  cfg.seed = 99;
  const auto b = run_long_flow_experiment(cfg);
  EXPECT_NE(a.bottleneck_drops, b.bottleneck_drops);
}

TEST(LongFlowExperiment, ReportsTopologyDerivedQuantities) {
  const auto r = run_long_flow_experiment(fast_long(10, 30));
  // Default delays: access 5..53 ms, bottleneck 10 ms, receiver 1 ms.
  EXPECT_GT(r.mean_rtt_sec, 0.032);
  EXPECT_LT(r.mean_rtt_sec, 0.128);
  EXPECT_NEAR(r.bdp_packets, r.mean_rtt_sec * 10e6 / 8000.0, 1.0);
}

TEST(LongFlowExperiment, AdequateBufferGivesHighUtilization) {
  const auto r = run_long_flow_experiment(fast_long(10, 60));
  EXPECT_GT(r.utilization, 0.95);
}

TEST(LongFlowExperiment, TinyBufferLosesThroughputAndDropsPackets) {
  const auto r = run_long_flow_experiment(fast_long(2, 2));
  EXPECT_LT(r.utilization, 0.97);
  EXPECT_GT(r.bottleneck_drops, 0u);
  EXPECT_GT(r.loss_rate, 0.0);
}

TEST(LongFlowExperiment, CwndSamplingFillsSeries) {
  auto cfg = fast_long(5, 40);
  cfg.cwnd_sample_interval = SimTime::milliseconds(100);
  cfg.sample_per_flow_cwnd = true;
  const auto r = run_long_flow_experiment(cfg);
  // 10 s measurement at 100 ms -> ~100 samples.
  EXPECT_NEAR(static_cast<double>(r.total_cwnd.size()), 100.0, 3.0);
  ASSERT_EQ(r.per_flow_cwnd.size(), 5u);
  for (const auto& series : r.per_flow_cwnd) {
    EXPECT_EQ(series.size(), r.total_cwnd.size());
  }
  // Aggregate equals sum of per-flow at each sample.
  for (std::size_t i = 0; i < r.total_cwnd.size(); ++i) {
    double sum = 0;
    for (const auto& series : r.per_flow_cwnd) sum += series[i];
    EXPECT_NEAR(r.total_cwnd.points()[i].value, sum, 1e-9);
  }
}

TEST(LongFlowExperiment, NoSamplingWhenNotRequested) {
  const auto r = run_long_flow_experiment(fast_long(3, 40));
  EXPECT_TRUE(r.total_cwnd.empty());
  EXPECT_TRUE(r.per_flow_cwnd.empty());
}

TEST(MinBufferSearch, FindsThresholdConsistentWithDirectRuns) {
  auto cfg = fast_long(10, 0);
  const auto min_b = min_buffer_for_utilization(cfg, 0.95, 2, 200);
  EXPECT_GT(min_b, 2);
  EXPECT_LT(min_b, 200);
  cfg.buffer_packets = min_b;
  EXPECT_GE(run_long_flow_experiment(cfg).utilization, 0.95);
}

TEST(MinBufferSearch, ReturnsHiWhenTargetUnreachable) {
  auto cfg = fast_long(2, 0);
  cfg.measure = SimTime::seconds(5);
  // 2 flows cannot hit 99.99% with a 3-packet cap in this range.
  EXPECT_EQ(min_buffer_for_utilization(cfg, 0.9999, 2, 3), 3);
}

ShortFlowExperimentConfig fast_short() {
  ShortFlowExperimentConfig cfg;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.load = 0.7;
  cfg.flow_packets = 14;  // bursts 2,4,8
  cfg.num_leaves = 20;
  cfg.warmup = SimTime::seconds(3);
  cfg.measure = SimTime::seconds(15);
  cfg.buffer_packets = 300;
  return cfg;
}

TEST(ShortFlowExperiment, LoadMatchesTarget) {
  const auto r = run_short_flow_experiment(fast_short());
  EXPECT_NEAR(r.utilization, 0.7, 0.08);
  EXPECT_GT(r.flows_completed, 100u);
  EXPECT_GT(r.afct_seconds, 0.0);
}

TEST(ShortFlowExperiment, QueueTailIsMonotoneSurvival) {
  const auto r = run_short_flow_experiment(fast_short());
  ASSERT_GT(r.queue_tail.size(), 2u);
  EXPECT_NEAR(r.queue_tail[0], 1.0, 1e-9);  // P(Q >= 0) = 1
  for (std::size_t i = 1; i < r.queue_tail.size(); ++i) {
    EXPECT_LE(r.queue_tail[i], r.queue_tail[i - 1] + 1e-12);
  }
  EXPECT_NEAR(r.queue_tail.back(), 0.0, 1e-9);
}

TEST(ShortFlowExperiment, BigBufferMeansNoDrops) {
  const auto r = run_short_flow_experiment(fast_short());
  EXPECT_DOUBLE_EQ(r.drop_probability, 0.0);
}

TEST(ShortFlowExperiment, TinyBufferDropsAndSlowsFlows) {
  auto cfg = fast_short();
  const auto baseline = run_short_flow_experiment(cfg);
  cfg.buffer_packets = 5;
  const auto squeezed = run_short_flow_experiment(cfg);
  EXPECT_GT(squeezed.drop_probability, 0.0);
  EXPECT_GT(squeezed.afct_seconds, baseline.afct_seconds);
}

TEST(MinBufferForAfct, RespectsPenaltyBudget) {
  auto cfg = fast_short();
  const auto baseline = run_short_flow_experiment(cfg);
  const auto min_b = min_buffer_for_afct(cfg, baseline.afct_seconds, 0.2, 2, 300);
  EXPECT_LT(min_b, 300);
  cfg.buffer_packets = min_b;
  const auto at_min = run_short_flow_experiment(cfg);
  EXPECT_LE(at_min.afct_seconds, baseline.afct_seconds * 1.25);  // some noise slack
}

MixedFlowExperimentConfig fast_mixed() {
  MixedFlowExperimentConfig cfg;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.num_long_flows = 5;
  cfg.short_flow_load = 0.2;
  cfg.short_flow_packets = 14;
  cfg.num_short_leaves = 10;
  cfg.buffer_packets = 40;
  cfg.warmup = SimTime::seconds(4);
  cfg.measure = SimTime::seconds(12);
  return cfg;
}

TEST(MixedFlowExperiment, LongFlowsFillWhatShortFlowsLeave) {
  const auto r = run_mixed_flow_experiment(fast_mixed());
  EXPECT_GT(r.utilization, 0.9);
  EXPECT_GT(r.short_flows_completed, 30u);
  // Long flows carry most of the remaining ~80%.
  EXPECT_GT(r.long_flow_throughput_bps, 0.5 * 10e6);
}

TEST(MixedFlowExperiment, UdpShareIsCarried) {
  auto cfg = fast_mixed();
  cfg.udp_load = 0.2;
  const auto r = run_mixed_flow_experiment(cfg);
  EXPECT_GT(r.utilization, 0.9);
}

TEST(MixedFlowExperiment, ParetoSizingRuns) {
  auto cfg = fast_mixed();
  cfg.short_sizing = ShortFlowSizing::kPareto;
  cfg.pareto_max_packets = 200;
  const auto r = run_mixed_flow_experiment(cfg);
  EXPECT_GT(r.short_flows_completed, 10u);
  EXPECT_GT(r.utilization, 0.85);
}

TEST(MixedFlowExperiment, NoLongFlowsStaysLegal) {
  auto cfg = fast_mixed();
  cfg.num_long_flows = 0;
  cfg.warmup = SimTime::seconds(1);
  cfg.measure = SimTime::seconds(4);
  const auto r = run_mixed_flow_experiment(cfg);
  EXPECT_GT(r.short_flows_completed, 10u);
  EXPECT_EQ(r.long_flow_throughput_bps, 0.0);
}

TEST(MixedFlowExperiment, Deterministic) {
  const auto a = run_mixed_flow_experiment(fast_mixed());
  const auto b = run_mixed_flow_experiment(fast_mixed());
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.short_flows_completed, b.short_flows_completed);
}

}  // namespace
}  // namespace rbs::experiment
