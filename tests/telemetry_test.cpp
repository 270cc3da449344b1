// Telemetry layer tests: registry semantics, histogram quantiles, snapshot
// determinism across identically seeded runs, Chrome-trace JSON schema, and
// the utilization cross-check between the sampled series and the reported
// experiment result.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/long_flow_experiment.hpp"
#include "sim/simulation.hpp"
#include "stats/time_series.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace rbs;
using telemetry::Labels;
using telemetry::MetricsRegistry;
using telemetry::TraceSession;

TEST(MetricsRegistry, CounterAccumulatesAndResets) {
  MetricsRegistry reg;
  auto& c = reg.counter("drops");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistry, SameKeyReturnsSameMetric) {
  MetricsRegistry reg;
  reg.counter("x").add(7);
  EXPECT_EQ(reg.counter("x").value(), 7u);
  EXPECT_EQ(&reg.counter("x"), &reg.counter("x"));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, LabelsDistinguishMetrics) {
  MetricsRegistry reg;
  reg.counter("events", {{"class", "tx"}}).add(1);
  reg.counter("events", {{"class", "rx"}}).add(2);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.counter("events", {{"class", "tx"}}).value(), 1u);
  EXPECT_EQ(reg.counter("events", {{"class", "rx"}}).value(), 2u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("metric");
  EXPECT_THROW(reg.gauge("metric"), std::logic_error);
  EXPECT_THROW(reg.histogram("metric"), std::logic_error);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  auto& g = reg.gauge("depth");
  g.set(10.0);
  g.add(-3.5);
  EXPECT_DOUBLE_EQ(g.value(), 6.5);
}

TEST(Histogram, BasicMoments) {
  telemetry::Histogram h;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(Histogram, QuantilesWithinLogLinearError) {
  // 8 sub-buckets per power of two bounds relative quantile error at 12.5%.
  telemetry::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.5), 500.0, 500.0 * 0.125);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.125);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
  EXPECT_LE(h.quantile(0.99), h.max());
}

TEST(Snapshot, DeterministicOrderAndFind) {
  MetricsRegistry reg;
  reg.gauge("zeta").set(1);
  reg.counter("alpha").add(2);
  reg.histogram("mid").record(3);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  // std::map keying → samples come out sorted by name+labels.
  EXPECT_EQ(snap.samples[0].name, "alpha");
  EXPECT_EQ(snap.samples[1].name, "mid");
  EXPECT_EQ(snap.samples[2].name, "zeta");

  const auto* alpha = snap.find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_DOUBLE_EQ(alpha->value, 2.0);
  EXPECT_EQ(snap.find("missing"), nullptr);

  reg.counter("labeled", {{"k", "v"}}).add(9);
  const auto snap2 = reg.snapshot();
  ASSERT_NE(snap2.find("labeled", {{"k", "v"}}), nullptr);
  EXPECT_EQ(snap2.find("labeled", {{"k", "other"}}), nullptr);
}

TEST(Snapshot, JsonAndCsvShape) {
  MetricsRegistry reg;
  reg.counter("c", {{"a", "x,y"}}).add(1);  // label value with a comma
  const auto snap = reg.snapshot();
  const std::string json = snap.to_json();
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"c\""), std::string::npos);

  const std::string csv = snap.to_csv();
  EXPECT_EQ(csv.rfind("name,kind,labels", 0), 0u) << csv;
  // The serialized labels contain a comma, so the cell must be quoted.
  EXPECT_NE(csv.find('"'), std::string::npos) << csv;
}

TEST(SeriesTable, CsvJsonAndColumnMean) {
  telemetry::SeriesTable t;
  t.columns = {"a", "b"};
  t.times_ps = {1'000'000'000'000, 2'000'000'000'000};
  t.rows = {{1.0, 10.0}, {3.0, 30.0}};
  EXPECT_DOUBLE_EQ(t.column_mean("a"), 2.0);
  EXPECT_DOUBLE_EQ(t.column_mean("b"), 20.0);
  EXPECT_DOUBLE_EQ(t.column_mean("nope"), 0.0);
  EXPECT_EQ(t.to_csv().rfind("time_sec,a,b", 0), 0u) << t.to_csv();
  EXPECT_NE(t.to_json().find("\"columns\""), std::string::npos);
}

TEST(TraceSession, EventsComeBackOldestFirst) {
  TraceSession s{16};
  s.instant("t", "one", sim::SimTime::from_seconds(1));
  s.complete("t", "two", sim::SimTime::from_seconds(2), sim::SimTime::milliseconds(5));
  s.counter("t", "three", sim::SimTime::from_seconds(3), 1.5);
  const auto evs = s.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_STREQ(evs[0].name, "one");
  EXPECT_EQ(evs[0].ph, 'i');
  EXPECT_STREQ(evs[1].name, "two");
  EXPECT_EQ(evs[1].ph, 'X');
  EXPECT_EQ(evs[1].dur_ps, sim::SimTime::milliseconds(5).ps());
  EXPECT_EQ(evs[2].ph, 'C');
}

TEST(TraceSession, RingOverwritesOldest) {
  TraceSession s{4};
  for (int i = 0; i < 6; ++i) {
    s.instant("t", "e", sim::SimTime::from_seconds(i), {"i", i});
  }
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.dropped_events(), 2u);
  EXPECT_EQ(s.total_events(), 6u);
  const auto evs = s.events();
  ASSERT_EQ(evs.size(), 4u);
  // Events 0 and 1 were overwritten; 2..5 remain in order.
  EXPECT_EQ(evs.front().args[0].value, 2);
  EXPECT_EQ(evs.back().args[0].value, 5);
}

TEST(TraceSession, InternDeduplicates) {
  TraceSession s;
  const char* a = s.intern("flow/qlen");
  const char* b = s.intern("flow/qlen");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "flow/qlen");
}

TEST(TraceSession, ChromeJsonSchema) {
  TraceSession s;
  s.instant("cat", "marker", sim::SimTime::milliseconds(1), {"seq", 7});
  s.complete("pkt", "data", sim::SimTime::milliseconds(2), sim::SimTime::milliseconds(3),
             {"seq", 8}, {"bytes", 1000}, /*tid=*/4);
  s.counter("metrics", "util", sim::SimTime::milliseconds(5), -0.25);
  s.instant_with_detail("audit", "violation", sim::SimTime::milliseconds(6), "queue: \"bad\"");
  const std::string json = s.to_chrome_json();

  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Instants carry global scope so viewers render them as markers.
  EXPECT_NE(json.find("\"s\":\"g\""), std::string::npos);
  // The counter value is fixed-point micro-resolution; sign must survive.
  EXPECT_NE(json.find("\"value\":-0.250000"), std::string::npos) << json;
  // Detail strings are JSON-escaped.
  EXPECT_NE(json.find("queue: \\\"bad\\\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":0"), std::string::npos);

  // Structural sanity: balanced braces/brackets (no string values here
  // contain them, so plain counting is valid).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

experiment::LongFlowExperimentConfig small_config() {
  experiment::LongFlowExperimentConfig cfg;
  cfg.num_flows = 8;
  cfg.buffer_packets = 40;
  cfg.warmup = sim::SimTime::from_seconds(1);
  cfg.measure = sim::SimTime::from_seconds(3);
  cfg.seed = 7;
  cfg.telemetry.metrics = true;
  cfg.telemetry.sample_interval = sim::SimTime::milliseconds(100);
  return cfg;
}

TEST(ExperimentTelemetry, SnapshotAndSeriesAreDeterministic) {
  // Two identically seeded runs must export byte-identical telemetry
  // (profiling off: wall-clock durations are the one legitimately
  // nondeterministic export).
  const auto a = run_long_flow_experiment(small_config());
  const auto b = run_long_flow_experiment(small_config());
  ASSERT_TRUE(a.telemetry.collected);
  ASSERT_TRUE(b.telemetry.collected);
  EXPECT_EQ(a.telemetry.snapshot.to_json(), b.telemetry.snapshot.to_json());
  EXPECT_EQ(a.telemetry.series.to_csv(), b.telemetry.series.to_csv());
  EXPECT_GT(a.telemetry.series.size(), 0u);
}

TEST(ExperimentTelemetry, SeriesUtilizationMatchesReportedUtilization) {
  // The utilization probe reports delivered-bits deltas per interval, so the
  // column mean telescopes to the whole-window utilization the experiment
  // reports from its own byte counters.
  const auto r = run_long_flow_experiment(small_config());
  ASSERT_TRUE(r.telemetry.collected);
  const double series_mean = r.telemetry.series.column_mean("utilization");
  EXPECT_NEAR(series_mean, r.utilization, 0.02);
  EXPECT_GT(series_mean, 0.1);
}

TEST(ExperimentTelemetry, ZeroSampleIntervalThrows) {
  // A zero cadence would re-arm the sampler at one timestamp forever, so the
  // run must be refused up front. (tests/CMakeLists.txt gives this binary a
  // short TIMEOUT: a regression fails instead of hanging.)
  auto cfg = small_config();
  cfg.telemetry.sample_interval = sim::SimTime::zero();
  EXPECT_THROW(run_long_flow_experiment(cfg), std::invalid_argument);
}

TEST(Samplers, RejectNonPositiveIntervals) {
  sim::Simulation simulation;
  for (const auto interval : {sim::SimTime::zero(), sim::SimTime::milliseconds(-1)}) {
    EXPECT_THROW(telemetry::MetricsSampler(simulation, interval), std::invalid_argument);
    EXPECT_THROW(stats::PeriodicSampler(simulation, interval, [] { return 0.0; }),
                 std::invalid_argument);
  }
}

TEST(ExperimentTelemetry, TraceSessionCapturesARun) {
  auto cfg = small_config();
  telemetry::TraceSession session{8192};
  cfg.telemetry.trace = &session;
  const auto r = run_long_flow_experiment(cfg);
  (void)r;
  EXPECT_GT(session.total_events(), 0u);
  const std::string json = session.to_chrome_json();
  // Packet spans, queue counters, and TCP instants all share the document.
  EXPECT_NE(json.find("\"cat\":\"pkt\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
