// lab_testbed — recreate the paper's §5.2 laboratory methodology in
// simulation: a Harpoon-style closed-loop session workload (file transfers
// with think times, heavy-tailed sizes) offered to a router whose interface
// queue is resized between runs, with a packet trace for spot-checks — the
// workflow of the paper's Cisco GSR experiment.
//
//   $ ./lab_testbed              # sweep 0.5x/1x/2x/3x of the sqrt rule
//   $ ./lab_testbed --trace      # also print the 1.0x run's last 30 packet
//                                # and drop events on the bottleneck (about
//                                # the final 1.5 ms of the 40 s run),
//                                # tcpdump-style, from a TraceSession
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/sizing_rules.hpp"
#include "experiment/reporting.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"
#include "stats/utilization.hpp"
#include "telemetry/trace.hpp"
#include "traffic/session_workload.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const bool want_trace = argc > 1 && std::strcmp(argv[1], "--trace") == 0;

  // The testbed: OC3 bottleneck, 240 user sessions with heavy-tailed file
  // sizes (mean ~60 pkts) and 300 ms think time — offered demand right at
  // link capacity, so the closed loop keeps the bottleneck congested.
  const double rate = 155e6;
  const int leaves = 60;
  const int sessions_per_leaf = 4;
  const double rtt_sec = 0.080;
  const int effective_flows = leaves * sessions_per_leaf;
  const auto rule = core::sqrt_rule_packets(rtt_sec, rate, effective_flows, 1000);

  std::printf("lab testbed — OC3, %d Harpoon-style sessions (Pareto sizes, 0.3 s think),\n"
              "interface queue resized between runs; sqrt rule = %lld pkts\n\n",
              effective_flows, static_cast<long long>(rule));

  experiment::TablePrinter table{{"queue (pkts)", "multiple", "utilization",
                                  "transfers done", "median-ish AFCT (ms)", "drops"}};

  for (const double mult : {0.5, 1.0, 2.0, 3.0}) {
    // Tracing only observes: the ring keeps the run's most recent events,
    // and the table below is the same with or without it.
    const bool trace_this_run = want_trace && mult == 1.0;
    telemetry::TraceSession session{4096};
    sim::Simulation sim{7};
    if (trace_this_run) sim.set_trace(&session);
    net::DumbbellConfig topo_cfg;
    topo_cfg.num_leaves = leaves;
    topo_cfg.bottleneck_rate = core::BitsPerSec{rate};
    topo_cfg.buffer_packets =
        std::max<std::int64_t>(4, static_cast<std::int64_t>(std::llround(mult * rule)));
    net::Dumbbell topo{sim, topo_cfg};

    traffic::ParetoFlowSize sizes{1.1, 10, 50'000};
    traffic::SessionWorkloadConfig wl_cfg;
    wl_cfg.sessions_per_leaf = sessions_per_leaf;
    wl_cfg.mean_think_time_sec = 0.3;
    traffic::SessionWorkload workload{sim, topo, sizes, wl_cfg};

    sim.run_until(sim::SimTime::seconds(10));  // warm-up
    topo.bottleneck().reset_stats();
    const auto measure_start = sim.now();
    stats::UtilizationMeter meter{sim, topo.bottleneck()};
    meter.begin();
    sim.run_until(sim::SimTime::seconds(40));

    const auto afct = workload.completions().afct_filtered(measure_start);
    table.add_row(
        {experiment::format("%lld", static_cast<long long>(topo_cfg.buffer_packets)),
         experiment::format("%.1f x", mult),
         experiment::format("%.2f%%", 100 * meter.utilization()),
         experiment::format("%llu", static_cast<unsigned long long>(afct.count())),
         experiment::format("%.0f", 1e3 * afct.mean()),
         experiment::format("%llu",
                            static_cast<unsigned long long>(
                                topo.bottleneck().queue().stats().dropped_packets))});

    if (trace_this_run) {
      const std::uint32_t track = session.track(topo.bottleneck().name());
      std::vector<telemetry::TraceEvent> lines;
      for (const auto& e : session.events()) {
        if (e.track == track && e.ph != 'C') lines.push_back(e);  // skip queue-depth samples
      }
      if (lines.size() > 30) lines.erase(lines.begin(), lines.end() - 30);
      std::printf("last bottleneck events at 1.0x (tcpdump-style):\n%s\n",
                  session.to_text(lines).c_str());
    }
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("reading the table: like the paper's GSR runs, utilization climbs steeply\n"
              "around the sqrt rule and flattens by 2-3x. Because sessions are closed-loop\n"
              "(users pause between transfers, and slow transfers delay the next request),\n"
              "sub-rule buffers also show up as fewer completed transfers and longer AFCT —\n"
              "loss-driven timeouts hurt a closed loop more than queueing delay does.\n");
  return 0;
}
