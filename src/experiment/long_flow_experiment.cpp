#include "experiment/long_flow_experiment.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>

#include "fault/fault_injector.hpp"
#include "sim/simulation.hpp"
#include "stats/delay_recorder.hpp"
#include "stats/online_stats.hpp"
#include "stats/utilization.hpp"
#include "traffic/long_flow_workload.hpp"

namespace rbs::experiment {

LongFlowExperimentResult run_long_flow_experiment(const LongFlowExperimentConfig& config) {
  // Checked in every build type: zero flows would report NaN predictions
  // and a fairness index over nothing.
  if (config.num_flows < 1) {
    throw std::invalid_argument("long-flow experiment: num_flows must be >= 1, got " +
                                std::to_string(config.num_flows));
  }
  // The schedule horizon is bounded by the run length: nothing is ever
  // scheduled past warmup + measure, so backend=auto can resolve from it.
  sim::Simulation sim{config.seed, config.scheduler_backend,
                      config.warmup + config.measure};
  ExperimentTelemetry tele{sim, config.telemetry};

  net::DumbbellConfig topo_cfg;
  topo_cfg.num_leaves = config.num_flows;
  topo_cfg.bottleneck_rate = config.bottleneck_rate;
  topo_cfg.bottleneck_delay = config.bottleneck_delay;
  topo_cfg.buffer_packets = config.buffer_packets;
  topo_cfg.access_rate = config.access_rate;
  topo_cfg.access_delay_min = config.access_delay_min;
  topo_cfg.access_delay_max = config.access_delay_max;
  topo_cfg.discipline = config.discipline;
  topo_cfg.red = config.red;
  net::Dumbbell topo{sim, topo_cfg};

  traffic::LongFlowWorkloadConfig wl_cfg;
  wl_cfg.tcp = config.tcp;
  wl_cfg.sink = config.sink;
  wl_cfg.start_stagger = std::min(config.warmup, sim::SimTime::seconds(5));
  traffic::LongFlowWorkload workload{sim, topo, wl_cfg};

  // Arm fault injection before warm-up so schedules can hit any phase of
  // the run. An empty schedule creates no injector and perturbs nothing.
  std::unique_ptr<fault::FaultInjector> injector;
  if (!config.faults.empty()) {
    injector = std::make_unique<fault::FaultInjector>(sim);
    for (const auto& link : topo.links()) injector->attach(*link);
    injector->arm(config.faults);
  }

  std::unique_ptr<check::InvariantAuditor> auditor;
  if (config.checked) {
    auditor = std::make_unique<check::InvariantAuditor>();
    auditor->add("bottleneck.queue", topo.bottleneck().queue());
    auditor->add("tcp", workload);
    if (injector) auditor->add("fault.injector", *injector);
    sim.enable_auditing(*auditor, config.audit_every_events);
    tele.attach_auditor(*auditor);
  }
  tele.arm_crash_probes(topo.bottleneck());

  // Warm up, then reset counters and measure.
  tele.run_guarded(config.warmup);
  topo.bottleneck().reset_stats();
  const tcp::TcpSourceStats tcp_at_warmup = workload.total_stats();
  stats::UtilizationMeter meter{sim, topo.bottleneck()};
  meter.begin();

  // Telemetry series over the measurement window: standard bottleneck
  // columns plus the aggregate congestion window.
  tele.add_bottleneck_probes(topo.bottleneck());
  tele.add_probe("cwnd_total_pkts", [&workload] { return workload.total_cwnd(); });
  tele.start(sim.now() + config.telemetry.sample_interval);

  // Samplers during the measurement window.
  stats::OnlineStats queue_occupancy;
  const auto queue_interval = sim::SimTime::milliseconds(10);
  stats::PeriodicSampler queue_sampler{sim, queue_interval, [&] {
    const auto q = static_cast<double>(topo.bottleneck().occupancy_packets());
    queue_occupancy.add(q);
    return q;
  }};
  queue_sampler.start(sim.now() + queue_interval);

  LongFlowExperimentResult result;

  stats::DelayRecorder delays;
  std::vector<std::int64_t> una_at_start;
  if (config.record_delays) {
    topo.bottleneck().on_queue_delay = [&delays](sim::SimTime d) { delays.record(d); };
    una_at_start.reserve(static_cast<std::size_t>(config.num_flows));
    for (int i = 0; i < config.num_flows; ++i) {
      una_at_start.push_back(workload.source(i).snd_una());
    }
  }

  std::unique_ptr<stats::PeriodicSampler> cwnd_sampler;
  if (config.cwnd_sample_interval > sim::SimTime::zero()) {
    if (config.sample_per_flow_cwnd) {
      result.per_flow_cwnd.assign(static_cast<std::size_t>(config.num_flows), {});
    }
    cwnd_sampler = std::make_unique<stats::PeriodicSampler>(
        sim, config.cwnd_sample_interval, [&workload, &result, per_flow = config.sample_per_flow_cwnd] {
          if (per_flow) {
            const auto snapshot = workload.cwnd_snapshot();
            for (std::size_t i = 0; i < snapshot.size(); ++i) {
              result.per_flow_cwnd[i].push_back(snapshot[i]);
            }
          }
          return workload.total_cwnd();
        });
    cwnd_sampler->start(sim.now() + config.cwnd_sample_interval);
  }

  // Steady-state detection over the measurement window, fed by its own
  // delta-based probe on the telemetry cadence. Runs whenever metrics are
  // collected (to document settling time) or early exit is requested.
  std::unique_ptr<telemetry::ConvergenceDetector> conv;
  std::unique_ptr<stats::PeriodicSampler> conv_sampler;
  if (config.telemetry.metrics || config.convergence_early_exit) {
    conv = std::make_unique<telemetry::ConvergenceDetector>(config.convergence);
    const double interval_sec = config.telemetry.sample_interval.to_seconds();
    conv_sampler = std::make_unique<stats::PeriodicSampler>(
        sim, config.telemetry.sample_interval,
        [&sim, &topo, det = conv.get(), interval_sec,
         prev_bits = topo.bottleneck().stats().bits_delivered,
         prev_drops = topo.bottleneck().queue().stats().dropped_packets,
         rate = topo.bottleneck().rate_bps()]() mutable {
          const std::uint64_t bits = topo.bottleneck().stats().bits_delivered;
          const std::uint64_t drops = topo.bottleneck().queue().stats().dropped_packets;
          const double util = static_cast<double>(bits - prev_bits) / (rate * interval_sec);
          const double drop_pps = static_cast<double>(drops - prev_drops) / interval_sec;
          prev_bits = bits;
          prev_drops = drops;
          det->observe(sim.now(), util,
                       static_cast<double>(topo.bottleneck().occupancy_packets()), drop_pps);
          return det->converged() ? 1.0 : 0.0;
        });
    conv_sampler->start(sim.now() + config.telemetry.sample_interval);
  }

  const sim::SimTime measure_end = config.warmup + config.measure;
  if (config.convergence_early_exit && conv) {
    // Interval-bounded chunks: splitting run_until at times where the only
    // due work is the sampler tick itself preserves event order exactly, so
    // a run that never converges early matches the single-run_until run.
    while (sim.now() < measure_end && !conv->converged()) {
      tele.run_guarded(std::min(measure_end, sim.now() + config.telemetry.sample_interval));
    }
    if (sim.now() < measure_end) conv->mark_truncated();
  } else {
    tele.run_guarded(measure_end);
  }

  if (auditor) {
    auditor->audit_now();
    auditor->require_clean();
  }

  result.utilization = meter.utilization();
  const auto& qstats = topo.bottleneck().queue().stats();
  // Everything offered to the link either got delivered, is still queued, or
  // was dropped (the in-service packet is a ±1 rounding).
  const auto offered = topo.bottleneck().stats().packets_delivered +
                       static_cast<std::uint64_t>(topo.bottleneck().queue().size_packets()) +
                       qstats.dropped_packets;
  result.loss_rate = offered > 0 ? static_cast<double>(qstats.dropped_packets) /
                                       static_cast<double>(offered)
                                 : 0.0;
  result.bottleneck_drops = qstats.dropped_packets;
  result.mean_queue_packets = queue_occupancy.mean();
  result.mean_rtt_sec = topo.mean_rtt().to_seconds();
  result.bdp_packets = topo.bdp_packets(config.tcp.segment);
  // Report TCP counters over the measurement window only, consistent with
  // the link/queue statistics.
  result.tcp_stats = workload.total_stats();
  result.tcp_stats.data_packets_sent -= tcp_at_warmup.data_packets_sent;
  result.tcp_stats.retransmissions -= tcp_at_warmup.retransmissions;
  result.tcp_stats.fast_retransmits -= tcp_at_warmup.fast_retransmits;
  result.tcp_stats.timeouts -= tcp_at_warmup.timeouts;
  result.tcp_stats.acks_received -= tcp_at_warmup.acks_received;
  result.tcp_stats.dup_acks_received -= tcp_at_warmup.dup_acks_received;
  result.tcp_stats.ecn_reductions -= tcp_at_warmup.ecn_reductions;
  if (cwnd_sampler) result.total_cwnd = std::move(cwnd_sampler->series());

  if (config.record_delays) {
    result.delay_mean_sec = delays.mean_seconds();
    result.delay_p50_sec = delays.quantile_seconds(0.50);
    result.delay_p99_sec = delays.quantile_seconds(0.99);
    std::vector<double> goodput;
    goodput.reserve(una_at_start.size());
    for (int i = 0; i < config.num_flows; ++i) {
      goodput.push_back(static_cast<double>(workload.source(i).snd_una() -
                                            una_at_start[static_cast<std::size_t>(i)]));
    }
    result.fairness = stats::jain_fairness_index(goodput);
  }
  for (const auto& link : topo.links()) result.fault_drops += link->fault_stats().total();

  // Per-flow harvest: long flows never complete, so each reports its
  // lifetime-to-date summary (completed = false) at measurement end.
  if (tele.flow_stats() != nullptr) {
    for (int i = 0; i < config.num_flows; ++i) {
      tele.record_tcp_flow(workload.source(i), sim.now());
    }
  }
  if (conv) conv->export_into(sim.metrics());
  result.telemetry = tele.finish();
  return result;
}

std::int64_t min_buffer_for_utilization(LongFlowExperimentConfig config,
                                        double target_utilization, std::int64_t lo,
                                        std::int64_t hi) {
  return min_buffer_for_utilization(std::move(config), target_utilization, lo, hi,
                                    BufferProbePrepare{});
}

std::int64_t min_buffer_for_utilization(LongFlowExperimentConfig config,
                                        double target_utilization, std::int64_t lo,
                                        std::int64_t hi, const BufferProbePrepare& prepare,
                                        double* utilization_at_answer) {
  assert(lo >= 1 && hi >= lo);
  auto measure = [&](std::int64_t buffer) {
    config.buffer_packets = buffer;
    if (prepare) prepare(config, buffer);
    return run_long_flow_experiment(config).utilization;
  };

  // `hi` is always a probed buffer and `at_hi` what it measured: the loop
  // only lowers `hi` onto a probe that met the target, and ends at lo == hi.
  double at_hi = measure(hi);
  if (at_hi >= target_utilization) {  // else unreachable within range: answer hi
    while (lo < hi) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      const double u = measure(mid);
      if (u >= target_utilization) {
        hi = mid;
        at_hi = u;
      } else {
        lo = mid + 1;
      }
    }
  }
  if (utilization_at_answer != nullptr) *utilization_at_answer = at_hi;
  return hi;
}

}  // namespace rbs::experiment
