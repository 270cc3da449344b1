#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/sizing_rules.hpp"
#include "experiment/cca_matrix.hpp"
#include "experiment/long_flow_experiment.hpp"
#include "experiment/short_flow_experiment.hpp"
#include "experiment/sweep.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

namespace ex = rbs::experiment;
using rbs::sim::EventClass;
using rbs::sim::SimTime;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Appends printf-formatted text to `out`.
template <typename... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out += buf;
}

/// Notes the first envelope miss; a NaN fails every check.
void require(std::string& violation, bool ok, const char* what) {
  if (!ok && violation.empty()) violation = what;
}

/// Upper utilization bound: the meter counts a packet whose serialization
/// straddles the window start in full, so a saturated link may read up to
/// one packet above 1.0 (stats/utilization.hpp).
double max_utilization(rbs::core::BitsPerSec rate, SimTime measure, rbs::core::Bytes segment) {
  return 1.0 + 8.0 * static_cast<double>(segment.count()) /
                   (rate.bps() * measure.to_seconds());
}

/// Packets the bottleneck delivered in the measured window, from the
/// utilization the experiment reports (every data packet is one segment).
std::uint64_t delivered_packets(double utilization, rbs::core::BitsPerSec rate, SimTime measure,
                                rbs::core::Bytes segment) {
  return static_cast<std::uint64_t>(std::llround(
      utilization * rate.bps() * measure.to_seconds() /
      (8.0 * static_cast<double>(segment.count()))));
}

/// The backend a Simulation built with these arguments runs on.
const char* backend_name(rbs::sim::SchedulerBackend requested, SimTime horizon_hint) {
  return rbs::sim::resolve_scheduler_backend(requested, horizon_hint) ==
                 rbs::sim::SchedulerBackend::kHeap
             ? "heap"
             : "wheel";
}

/// Event counts and body times the EngineProfiler exported into a run's
/// metrics snapshot.
void harvest_profile(const ex::TelemetryResult& telemetry, EngineTally& tally) {
  for (std::size_t i = 0; i < rbs::sim::kNumEventClasses; ++i) {
    const rbs::telemetry::MetricSample* s = telemetry.snapshot.find(
        "engine.event_duration_ns",
        {{"class", rbs::sim::event_class_name(static_cast<EventClass>(i))}});
    if (s == nullptr) continue;
    tally.events[i] += s->count;
    tally.body_s[i] += s->sum * 1e-9;
  }
}

/// Times `run` on a copy of `config` with zero simulated time: the
/// construction and teardown every run pays before its first event.
template <typename Config, typename Run>
double zero_time_call(Config config, Run run) {
  config.warmup = SimTime::zero();
  config.measure = SimTime::zero();
  config.telemetry = ex::TelemetryConfig{};
  const auto start = Clock::now();
  (void)run(config);
  return seconds_since(start);
}

// --- long_flows --------------------------------------------------------------

/// One long-lived NewReno dumbbell in the backbone regime: OC48, 2000 flows,
/// a sqrt(n) buffer, delay percentiles and fairness recorded (as rbsim
/// mode=long runs it). Per-flow TCP state outgrows the caches and the
/// packet/ACK path dominates.
class LongFlows final : public Workload {
 public:
  LongFlows(Scale scale, std::uint64_t seed) {
    const bool full = scale == Scale::kFull;
    cfg_.num_flows = full ? 2000 : 50;
    cfg_.bottleneck_rate = rbs::core::BitsPerSec{full ? 2.5e9 : 155e6};
    cfg_.buffer_packets = rbs::core::sqrt_rule_packets(0.080, cfg_.bottleneck_rate.bps(),
                                                       cfg_.num_flows, 1000);
    cfg_.warmup = SimTime::from_seconds(full ? 0.5 : 0.2);
    cfg_.measure = SimTime::from_seconds(full ? 0.5 : 0.2);
    cfg_.record_delays = true;
    cfg_.seed = seed;
  }

  [[nodiscard]] int threads() const override { return 1; }
  [[nodiscard]] const char* backend() const override {
    return backend_name(cfg_.scheduler_backend, SimTime::infinity());
  }

  [[nodiscard]] double setup_once() override {
    return zero_time_call(cfg_, ex::run_long_flow_experiment);
  }

  [[nodiscard]] UnitOutcome run_unit(SpanLog* log, int run, int parent) override {
    UnitOutcome out;
    ex::LongFlowExperimentResult r;
    if (log == nullptr) {
      r = ex::run_long_flow_experiment(cfg_);
    } else {
      {
        const ScopedSpan span{*log, "setup", parent, run};
        out.engine.setup_s = setup_once();
      }
      ex::LongFlowExperimentConfig traced = cfg_;
      traced.telemetry.profile = true;
      const ScopedSpan span{*log, "run", parent, run};
      const auto start = Clock::now();
      r = ex::run_long_flow_experiment(traced);
      out.engine.run_s = seconds_since(start);
      harvest_profile(r.telemetry, out.engine);
      out.engine.bottleneck_pkts =
          delivered_packets(r.utilization, cfg_.bottleneck_rate, cfg_.measure, cfg_.tcp.segment);
      out.engine.delay_samples = out.engine.bottleneck_pkts;
      out.engine.drops = r.bottleneck_drops;
      out.engine.acks = r.tcp_stats.acks_received;
      out.engine.retransmissions = r.tcp_stats.retransmissions;
      out.engine.timeouts = r.tcp_stats.timeouts;
    }
    appendf(out.record, "util=%a loss=%a queue=%a delay_mean=%a p50=%a p99=%a fairness=%a\n",
            r.utilization, r.loss_rate, r.mean_queue_packets, r.delay_mean_sec, r.delay_p50_sec,
            r.delay_p99_sec, r.fairness);
    appendf(out.record, "sent=%llu retx=%llu timeouts=%llu acks=%llu drops=%llu\n",
            static_cast<unsigned long long>(r.tcp_stats.data_packets_sent),
            static_cast<unsigned long long>(r.tcp_stats.retransmissions),
            static_cast<unsigned long long>(r.tcp_stats.timeouts),
            static_cast<unsigned long long>(r.tcp_stats.acks_received),
            static_cast<unsigned long long>(r.bottleneck_drops));
    const double util_max =
        max_utilization(cfg_.bottleneck_rate, cfg_.measure, cfg_.tcp.segment);
    require(out.violation, r.utilization > 0.0 && r.utilization <= util_max,
            "utilization outside (0, 1]");
    require(out.violation, r.loss_rate >= 0.0 && r.loss_rate < 1.0, "loss outside [0, 1)");
    require(out.violation, r.delay_p99_sec >= r.delay_p50_sec && r.delay_p50_sec >= 0.0,
            "delay percentiles out of order");
    require(out.violation, r.fairness > 0.0 && r.fairness <= 1.0 + 1e-12,
            "fairness outside (0, 1]");
    return out;
  }

 private:
  ex::LongFlowExperimentConfig cfg_;
};

// --- short_flows -------------------------------------------------------------

/// Poisson arrivals of 6-packet slow-start flows at load 0.8 behind a buffer
/// deep enough that nothing drops: connection set-up, slow start and
/// teardown with no loss recovery, tens of thousands of flows per unit.
class ShortFlows final : public Workload {
 public:
  ShortFlows(Scale scale, std::uint64_t seed) {
    const bool full = scale == Scale::kFull;
    cfg_.bottleneck_rate = rbs::core::BitsPerSec{155e6};
    cfg_.load = 0.8;
    cfg_.flow_packets = 6;
    cfg_.buffer_packets = 100'000;
    cfg_.warmup = SimTime::from_seconds(full ? 1.0 : 0.2);
    cfg_.measure = SimTime::from_seconds(full ? 19.0 : 1.0);
    cfg_.seed = seed;
  }

  [[nodiscard]] int threads() const override { return 1; }
  [[nodiscard]] const char* backend() const override {
    return backend_name(cfg_.scheduler_backend, cfg_.warmup + cfg_.measure);
  }

  [[nodiscard]] double setup_once() override {
    return zero_time_call(cfg_, ex::run_short_flow_experiment);
  }

  [[nodiscard]] UnitOutcome run_unit(SpanLog* log, int run, int parent) override {
    UnitOutcome out;
    ex::ShortFlowExperimentResult r;
    if (log == nullptr) {
      r = ex::run_short_flow_experiment(cfg_);
    } else {
      {
        const ScopedSpan span{*log, "setup", parent, run};
        out.engine.setup_s = setup_once();
      }
      ex::ShortFlowExperimentConfig traced = cfg_;
      traced.telemetry.profile = true;
      const ScopedSpan span{*log, "run", parent, run};
      const auto start = Clock::now();
      r = ex::run_short_flow_experiment(traced);
      out.engine.run_s = seconds_since(start);
      harvest_profile(r.telemetry, out.engine);
      out.engine.bottleneck_pkts =
          delivered_packets(r.utilization, cfg_.bottleneck_rate, cfg_.measure, cfg_.tcp.segment);
      out.engine.drops = static_cast<std::uint64_t>(
          std::llround(r.drop_probability * static_cast<double>(out.engine.bottleneck_pkts)));
      out.engine.flows_completed = r.flows_completed;
    }
    appendf(out.record, "afct=%a flows=%llu drop=%a util=%a queue=%a\n", r.afct_seconds,
            static_cast<unsigned long long>(r.flows_completed), r.drop_probability,
            r.utilization, r.mean_queue_packets);
    const double util_max =
        max_utilization(cfg_.bottleneck_rate, cfg_.measure, cfg_.tcp.segment);
    require(out.violation, r.utilization > 0.0 && r.utilization <= util_max,
            "utilization outside (0, 1]");
    require(out.violation, r.drop_probability >= 0.0 && r.drop_probability < 1.0,
            "loss outside [0, 1)");
    require(out.violation, r.afct_seconds > 0.0, "AFCT not positive");
    require(out.violation, r.flows_completed > 0, "no flow completed");
    return out;
  }

 private:
  ex::ShortFlowExperimentConfig cfg_;
};

// --- buffer_search -----------------------------------------------------------

/// The CCA x n min-buffer matrix (Spang, Arslan & McKeown): eight serial
/// bisection chains of unequal cost on the sweep pool, the only workload
/// with CUBIC, BBR, DCTCP and RED step marking.
class BufferSearch final : public Workload {
 public:
  BufferSearch(Scale scale, std::uint64_t seed, int max_threads) {
    const bool full = scale == Scale::kFull;
    mc_.threads = std::clamp(max_threads, 1, 4);
    mc_.base.seed = seed;
    // The rate of bench/fig_cca_matrix's quick scale, with a third of its
    // simulated time per probe so that a run holds about ten matrices.
    mc_.base.bottleneck_rate = rbs::core::BitsPerSec{full ? 50e6 : 10e6};
    mc_.base.warmup = SimTime::seconds(full ? 4 : 1);
    mc_.base.measure = SimTime::seconds(full ? 5 : 1);
    if (!full) mc_.flow_counts = {4};
  }

  [[nodiscard]] int threads() const override { return mc_.threads; }
  [[nodiscard]] const char* backend() const override {
    return backend_name(mc_.base.scheduler_backend, SimTime::infinity());
  }

  [[nodiscard]] double setup_once() override {
    const auto start = Clock::now();
    { const ex::SweepRunner pool{mc_.threads}; }
    double total = seconds_since(start);
    for (const auto& [cca, n] : points()) {
      total += zero_time_call(cell_config(cca, n, mc_.min_buffer), ex::run_long_flow_experiment);
    }
    return total;
  }

  [[nodiscard]] UnitOutcome run_unit(SpanLog* log, int run, int parent) override {
    UnitOutcome out;
    std::vector<Cell> cells;
    if (log == nullptr) {
      const ex::CcaMatrixResult result = ex::run_cca_buffer_matrix(mc_);
      for (const ex::CcaMatrixCell& c : result.cells) cells.push_back(Cell{c, 0, {}, {}});
    } else {
      cells = redrive(*log, run, parent, out.search);
    }
    for (const Cell& cell : cells) {
      const ex::CcaMatrixCell& c = cell.cell;
      appendf(out.record, "%s n=%d min=%lld bdp=%lld sqrt=%lld util=%a\n",
              rbs::tcp::flavor_name(c.cca), c.num_flows,
              static_cast<long long>(c.min_buffer_packets), static_cast<long long>(c.bdp_packets),
              static_cast<long long>(c.sqrt_rule_packets), c.utilization_at_min);
      const std::int64_t lo = lower_bound();
      const std::int64_t hi = upper_bound(c.bdp_packets);
      require(out.violation, c.min_buffer_packets >= lo && c.min_buffer_packets <= hi,
              "min buffer outside the bisection range");
      require(out.violation, c.utilization_at_min > 0.0 && c.utilization_at_min <= 1.0,
              "utilization outside (0, 1]");
      // The confirmation run repeats the probe that ended the bisection, so
      // it meets the target unless the target was unreachable (answer = hi).
      require(out.violation,
              c.utilization_at_min >= mc_.target_utilization || c.min_buffer_packets == hi,
              "min buffer misses the target utilization");
      out.engine.add(cell.engine);
      out.search.probe_s.insert(out.search.probe_s.end(), cell.probe_s.begin(),
                                cell.probe_s.end());
      if (log != nullptr) out.search.probes_needed += serial_probes(lo, hi, cell);
    }
    return out;
  }

 private:
  struct Cell {
    ex::CcaMatrixCell cell;
    std::uint64_t probes{0};
    std::vector<double> probe_s;
    EngineTally engine;  ///< the profiled confirmation run
  };

  [[nodiscard]] std::vector<std::pair<rbs::tcp::TcpFlavor, int>> points() const {
    std::vector<std::pair<rbs::tcp::TcpFlavor, int>> out;
    for (const rbs::tcp::TcpFlavor cca : mc_.ccas) {
      for (const int n : mc_.flow_counts) out.emplace_back(cca, n);
    }
    return out;
  }

  [[nodiscard]] ex::LongFlowExperimentConfig cell_config(rbs::tcp::TcpFlavor cca, int n,
                                                         std::int64_t buffer) const {
    ex::LongFlowExperimentConfig cfg = mc_.base;
    cfg.num_flows = n;
    cfg.buffer_packets = buffer;
    ex::apply_cca_profile(cfg, cca, buffer);
    return cfg;
  }

  /// The bisection range run_cca_buffer_matrix searches for a cell.
  [[nodiscard]] std::int64_t lower_bound() const {
    return std::max<std::int64_t>(1, mc_.min_buffer);
  }
  [[nodiscard]] std::int64_t upper_bound(std::int64_t bdp_packets) const {
    return std::max(lower_bound() + 1, static_cast<std::int64_t>(std::ceil(
                                           static_cast<double>(bdp_packets) * mc_.bdp_multiple)));
  }

  /// Probes min_buffer_for_utilization makes serially to reach `cell`'s
  /// answer on [lo, hi]: the upper end, then one per halving. A probe at or
  /// above the answer met the target and every one below missed it, so the
  /// answer fixes the path. An unreachable target stops after one probe.
  [[nodiscard]] static std::uint64_t serial_probes(std::int64_t lo, std::int64_t hi,
                                                   const Cell& cell) {
    const std::int64_t answer = cell.cell.min_buffer_packets;
    if (answer == hi && cell.probes == 1) return 1;
    std::uint64_t probes = 1;
    while (lo < hi) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      ++probes;
      if (mid >= answer) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return probes;
  }

  /// The same cells run_cca_buffer_matrix computes, re-driven through
  /// min_buffer_for_utilization on a pool of our own so that every sweep
  /// point and every bisection probe gets a span. The correctness gate
  /// requires the answers to equal the untraced matrix's.
  std::vector<Cell> redrive(SpanLog& log, int run, int parent, SearchTally& search) {
    const auto pts = points();
    std::vector<int> point_span(pts.size(), -1);
    ex::SweepRunner pool{mc_.threads};
    pool.set_observer(ex::SweepObserver{
        [&](std::size_t i, int worker) {
          point_span[i] = log.open("point", parent, run, worker);
        },
        [&](std::size_t i, int /*worker*/) { log.close(point_span[i]); }});
    std::vector<Cell> cells = pool.map<Cell>(pts.size(), [&](std::size_t i) {
      return redrive_cell(pts[i].first, pts[i].second, log, run, point_span[i]);
    });
    for (const ex::WorkerDispatchStats& w : pool.dispatch_stats()) search.chunks += w.chunks;

    const std::vector<Span> spans = log.snapshot();
    for (const int p : point_span) {
      const double point_s = spans[static_cast<std::size_t>(p)].duration_s();
      double children_s = 0.0;
      for (const Span& s : spans) {
        if (s.parent == p) children_s += s.duration_s();
      }
      search.busy_s += point_s;
      search.point_self_s += point_s - children_s;
      search.critical_path_s = std::max(search.critical_path_s, point_s);
    }
    return cells;
  }

  /// run_cell of experiment/cca_matrix.cpp, step for step, with spans.
  Cell redrive_cell(rbs::tcp::TcpFlavor cca, int n, SpanLog& log, int run, int point) const {
    Cell out;
    out.cell.cca = cca;
    out.cell.num_flows = n;
    ex::LongFlowExperimentConfig cfg = mc_.base;
    cfg.num_flows = n;
    {
      const ScopedSpan span{log, "bdp_probe", point, run};
      ex::LongFlowExperimentConfig probe = cfg;
      probe.warmup = SimTime::milliseconds(1);
      probe.measure = SimTime::milliseconds(1);
      probe.telemetry = ex::TelemetryConfig{};
      probe.checked = false;
      out.cell.bdp_packets = static_cast<std::int64_t>(
          std::llround(ex::run_long_flow_experiment(probe).bdp_packets));
    }
    out.cell.sqrt_rule_packets = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(static_cast<double>(out.cell.bdp_packets) /
                                               std::sqrt(static_cast<double>(n)))));
    const std::int64_t lo = lower_bound();
    const std::int64_t hi = upper_bound(out.cell.bdp_packets);

    // Each probe's span runs from its prepare call to the next one (or to
    // the bisection's return): the hook is the only point the bisection
    // exposes between probes.
    int open_probe = -1;
    const auto close_probe = [&] {
      if (open_probe < 0) return;
      out.probe_s.push_back(log.close(open_probe));
      open_probe = -1;
    };
    const auto prepare = [&](ex::LongFlowExperimentConfig& c, std::int64_t buffer) {
      close_probe();
      open_probe = log.open("probe", point, run);
      ++out.probes;
      ex::apply_cca_profile(c, cca, buffer);
    };
    out.cell.min_buffer_packets =
        ex::min_buffer_for_utilization(cfg, mc_.target_utilization, lo, hi, prepare);
    close_probe();

    ex::LongFlowExperimentConfig at_min = cfg;
    at_min.buffer_packets = out.cell.min_buffer_packets;
    ex::apply_cca_profile(at_min, cca, out.cell.min_buffer_packets);
    {
      const ScopedSpan span{log, "confirm", point, run};
      out.engine.setup_s = zero_time_call(at_min, ex::run_long_flow_experiment);
      at_min.telemetry.profile = true;
      const auto start = Clock::now();
      const ex::LongFlowExperimentResult r = ex::run_long_flow_experiment(at_min);
      out.engine.run_s = seconds_since(start);
      harvest_profile(r.telemetry, out.engine);
      out.engine.bottleneck_pkts =
          delivered_packets(r.utilization, at_min.bottleneck_rate, at_min.measure,
                            at_min.tcp.segment);
      out.engine.drops = r.bottleneck_drops;
      out.engine.acks = r.tcp_stats.acks_received;
      out.engine.retransmissions = r.tcp_stats.retransmissions;
      out.engine.timeouts = r.tcp_stats.timeouts;
      out.cell.utilization_at_min = r.utilization;
    }
    out.cell.ratio_vs_sqrt_rule = static_cast<double>(out.cell.min_buffer_packets) /
                                  static_cast<double>(out.cell.sqrt_rule_packets);
    return out;
  }

  ex::CcaMatrixConfig mc_;
};

}  // namespace

void EngineTally::add(const EngineTally& other) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i] += other.events[i];
    body_s[i] += other.body_s[i];
  }
  run_s += other.run_s;
  setup_s += other.setup_s;
  bottleneck_pkts += other.bottleneck_pkts;
  drops += other.drops;
  acks += other.acks;
  retransmissions += other.retransmissions;
  timeouts += other.timeouts;
  flows_completed += other.flows_completed;
  delay_samples += other.delay_samples;
}

double EngineTally::body_total_s() const {
  double total = 0.0;
  for (const double s : body_s) total += s;
  return total;
}

std::uint64_t EngineTally::events_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : events) total += n;
  return total;
}

std::unique_ptr<Workload> make_workload(std::string_view name, Scale scale, std::uint64_t seed,
                                        int max_threads) {
  if (name == "long_flows") return std::make_unique<LongFlows>(scale, seed);
  if (name == "short_flows") return std::make_unique<ShortFlows>(scale, seed);
  if (name == "buffer_search") return std::make_unique<BufferSearch>(scale, seed, max_threads);
  return nullptr;
}

std::string digest_of(std::string_view record) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : record) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
