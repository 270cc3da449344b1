// rbs_perfbench: the simulator's end-to-end benchmark and per-layer ledger.
//
//   rbs_perfbench --workload long_flows|short_flows|buffer_search --seed N
//                 --seconds S --trace 0|1 [--scale full|tiny]
//                 [--expect-digest HEX] [--revision STR] [--spans PATH]
//
// Closed loop from one client: each unit of work (one run, or the whole
// buffer matrix) starts when the previous one ends, for about S seconds.
// With --trace 0 every unit is untraced and the program reports the
// end-to-end metrics; with --trace 1 untraced and profiled units alternate
// and it reports the per-layer ledger. Every unit's simulated outputs must
// match the first unit's (or --expect-digest) and lie inside a physical
// envelope; any miss or exception counts as a failed unit and makes the
// exit code 1. The last line of stdout is the result as one JSON object.
// perfbench/run.py builds this program and is the usual way to run it.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::EngineTally;
using perfbench::SearchTally;
using perfbench::SpanLog;
using perfbench::UnitOutcome;
using perfbench::Workload;
using rbs::sim::EventClass;
using Clock = std::chrono::steady_clock;

/// Largest share of traced wall time the ledger may leave unattributed.
constexpr double kUnattributedTolerance = 0.02;

/// Set-up calls timed before the first unit and before each later one;
/// their median is setup_s.
constexpr int kFirstSetups = 5;
constexpr int kSetupsPerUnit = 2;

/// Why a build measures a different program than the one users run; null
/// for an optimized release build.
const char* unfit_build() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "unoptimized or assert-enabled (Debug) build";
#elif defined(RBS_CHECKED)
  return "RBS_CHECKED build (hot-path invariant checks compiled in)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer) || __has_feature(memory_sanitizer)
  return "sanitizer build";
#else
  return nullptr;
#endif
#else
  return nullptr;
#endif
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Restarts the kernel's peak-RSS record (VmHWM) at the current RSS, so a
/// unit's peak excludes memory the benchmark itself used and released
/// before it. False where /proc/self/clear_refs is not writable.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak resident memory since the last reset_peak_rss (process lifetime if
/// none took effect), in MiB.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Host-speed reference. On a shared 4-core Xeon KVM guest, speed switched
/// between phases up to ~1.6x apart that lasted seconds to minutes (other
/// tenants share the cores and caches), and a whole run could fall inside a
/// slow one. So a fixed piece
/// of work shaped like the simulator's inner loop -- a binary-heap event
/// queue driving scattered read-modify-writes to an 8 MiB state array -- is
/// timed before every unit and once after the last, and a unit's times are
/// scaled by kNominalCalibrationS over the faster of the two calibrations
/// that bracket it. The kernel never changes with the simulator, so scaled
/// times still move with every change to the simulator. How this variant
/// was chosen over the others tried is in perfbench/README.md.
class Calibration {
 public:
  double run() {
    // Mapped and unmapped on every run so that none of it is resident
    // while a unit runs (peak_rss_mb stays the simulator's). The pages are
    // populated before the clock starts: faults cost the hypervisor's time
    // and vary more than the core's speed.
    constexpr std::size_t kSlots = std::size_t{1} << 20;
    void* mem = mmap(nullptr, kSlots * sizeof(std::uint64_t), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (mem == MAP_FAILED) throw std::runtime_error("calibration: cannot map its state array");
    auto* state = static_cast<std::uint64_t*>(mem);
    std::vector<std::uint64_t> storage;
    storage.reserve(std::size_t{1} << 16);
    const auto start = Clock::now();
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> events{
        std::greater<>{}, std::move(storage)};
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int i = 0; i < 1 << 16; ++i) events.push(next() >> 20);
    for (int i = 0; i < 300'000; ++i) {
      const std::uint64_t t = events.top();
      events.pop();
      std::uint64_t& slot = state[next() & (kSlots - 1)];
      slot += t;
      if ((slot & 1) != 0) slot ^= x;
      events.push(t + (x >> 44));
    }
    checksum_ += state[x & (kSlots - 1)] + events.top();
    const double elapsed = seconds_since(start);
    munmap(mem, kSlots * sizeof(std::uint64_t));
    return elapsed;
  }

  /// Keeps the kernel's result observable so it is not optimized away.
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  std::uint64_t checksum_{0};
};

/// Calibration time that scaled times are expressed against: about what
/// the kernel took in the faster phases of that guest (4-core Xeon KVM,
/// gcc 12, Release).
constexpr double kNominalCalibrationS = 0.04;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  perfbench::Scale scale{perfbench::Scale::kFull};
  std::string expect_digest;
  std::string revision{"unknown"};
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args.scale = value == "tiny" ? perfbench::Scale::kTiny : perfbench::Scale::kFull;
    } else if (key == "--expect-digest") {
      args.expect_digest = value;
    } else if (key == "--revision") {
      args.revision = value;
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Metrics in output order, each with its unit.
class MetricList {
 public:
  void add(const char* name, double value, const char* unit) {
    items_.push_back(Item{name, value, unit});
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name, items_[i].value, items_[i].unit);
      out += buf;
    }
    return out + "}";
  }

  void print_table() const {
    for (const Item& m : items_) std::printf("  %-28s %18.9g %s\n", m.name, m.value, m.unit);
  }

 private:
  struct Item {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// Engine body time the ledger names a layer for. Classes it does not name
/// (generic callbacks, fault edges) stay out, so time spent in them shows as
/// unattributed.
double named_layer_s(const EngineTally& e) {
  return e.body_s_of(EventClass::kLinkTx) + e.body_s_of(EventClass::kLinkPropagation) +
         e.body_s_of(EventClass::kTcpTimer) + e.body_s_of(EventClass::kTcpPacing) +
         e.body_s_of(EventClass::kTcpDelayedAck) + e.body_s_of(EventClass::kWorkload) +
         e.body_s_of(EventClass::kSampler);
}

/// Host time spent between event bodies in the profiled runs: scheduling,
/// firing, the pool, and what the run does after its last event.
double engine_overhead_s(const EngineTally& e) {
  return e.run_s - e.setup_s - e.body_total_s();
}

/// Profiled run time that set-up, the named layers and the engine overhead
/// together fail to add back up to (nonzero only when set-up plus bodies
/// exceed the run, or a body falls in a class no layer names).
double engine_remainder_s(const EngineTally& e) {
  const double overhead = std::max(0.0, engine_overhead_s(e));
  return std::abs(e.run_s - e.setup_s - named_layer_s(e) - overhead);
}

struct UnitRecord {
  double wall_s{0.0};  ///< host seconds
  double cpu_s{0.0};
  double peak_rss_mb{0.0};  ///< resident high-water mark while the unit ran
  std::vector<double> setup_s;  ///< set-up samples taken just before the unit
  double calibration_s{0.0};    ///< calibration run just before the set-ups
  /// Host-speed factor: kNominalCalibrationS over the faster calibration
  /// around the unit. Every time reported is a host time times this.
  double scale{1.0};
  bool traced{false};
  UnitOutcome outcome;
};

/// Median over traced units of a per-unit time, scaled to the nominal host.
template <typename F>
double traced_median(const std::vector<UnitRecord>& units, F seconds) {
  std::vector<double> values;
  for (const UnitRecord& u : units) {
    if (u.traced) values.push_back(seconds(u) * u.scale);
  }
  return median(values);
}

void add_ledger(MetricList& m, const std::vector<UnitRecord>& units, double untraced_wall_s,
                int threads) {
  const auto* first = &units.front();
  for (const UnitRecord& u : units) {
    if (u.traced) {
      first = &u;
      break;
    }
  }
  // Counts repeat exactly from unit to unit; times are medians.
  const EngineTally& e0 = first->outcome.engine;
  const SearchTally& s0 = first->outcome.search;
  const auto body = [&](EventClass cls) {
    return traced_median(units, [cls](const UnitRecord& u) {
      return u.outcome.engine.body_s_of(cls);
    });
  };
  const double events = static_cast<double>(e0.events_total());
  const double run_s = traced_median(units, [](const UnitRecord& u) {
    return u.outcome.engine.run_s;
  });
  const double traced_wall_s = traced_median(units, [](const UnitRecord& u) { return u.wall_s; });

  m.add("sim.events", events, "count");
  m.add("sim.events_per_s", run_s > 0.0 ? events / run_s : 0.0, "1/s");
  m.add("sim.overhead_s",
        traced_median(units, [](const UnitRecord& u) { return engine_overhead_s(u.outcome.engine); }),
        "s");
  m.add("sim.body_ns",
        events > 0.0 ? 1e9 * traced_median(units, [](const UnitRecord& u) {
          return u.outcome.engine.body_total_s();
        }) / events
                     : 0.0,
        "ns");

  m.add("net.link_tx_s", body(EventClass::kLinkTx), "s");
  m.add("net.link_tx_events", static_cast<double>(e0.events_of(EventClass::kLinkTx)), "count");
  m.add("net.bottleneck_pkts", static_cast<double>(e0.bottleneck_pkts), "count");
  m.add("net.drops", static_cast<double>(e0.drops), "count");

  const double rx_s = body(EventClass::kLinkPropagation);
  const auto rx_events = static_cast<double>(e0.events_of(EventClass::kLinkPropagation));
  m.add("tcp.rx_s", rx_s, "s");
  m.add("tcp.rx_ns", rx_events > 0.0 ? 1e9 * rx_s / rx_events : 0.0, "ns");
  m.add("tcp.acks", static_cast<double>(e0.acks), "count");
  m.add("tcp.retransmissions", static_cast<double>(e0.retransmissions), "count");
  m.add("tcp.timeouts", static_cast<double>(e0.timeouts), "count");
  m.add("tcp.timer_s",
        body(EventClass::kTcpTimer) + body(EventClass::kTcpPacing) +
            body(EventClass::kTcpDelayedAck),
        "s");

  m.add("traffic.workload_s", body(EventClass::kWorkload), "s");
  m.add("traffic.flows_completed", static_cast<double>(e0.flows_completed), "count");

  m.add("stats.sampler_s", body(EventClass::kSampler), "s");
  m.add("stats.sampler_events", static_cast<double>(e0.events_of(EventClass::kSampler)),
        "count");
  m.add("stats.delay_samples", static_cast<double>(e0.delay_samples), "count");

  const auto probes = static_cast<double>(s0.probe_s.size());
  std::vector<double> probe_s;
  for (const UnitRecord& u : units) {
    for (const double p : u.outcome.search.probe_s) probe_s.push_back(p * u.scale);
  }
  m.add("experiment.probes", probes, "count");
  m.add("experiment.probe_s", median(probe_s), "s");
  m.add("experiment.critical_path_s",
        traced_median(units, [](const UnitRecord& u) { return u.outcome.search.critical_path_s; }),
        "s");
  m.add("experiment.useful_probe_ratio",
        probes > 0.0 ? static_cast<double>(s0.probes_needed) / probes : 0.0, "ratio");

  const bool swept = s0.busy_s > 0.0;
  const double capacity_s = static_cast<double>(threads) * traced_wall_s;
  const double busy_s =
      traced_median(units, [](const UnitRecord& u) { return u.outcome.search.busy_s; });
  m.add("sweep.busy_frac", swept ? busy_s / capacity_s : 0.0, "ratio");
  m.add("sweep.idle_s", swept ? std::max(0.0, capacity_s - busy_s) : 0.0, "s");
  m.add("sweep.chunks", static_cast<double>(s0.chunks), "count");

  std::vector<double> cpu;
  for (const UnitRecord& u : units) {
    if (!u.traced) cpu.push_back(u.cpu_s * u.scale);
  }
  m.add("cpu_s", median(cpu), "s");
  m.add("trace.wall_s", traced_wall_s, "s");
  m.add("trace.overhead_frac", traced_wall_s / untraced_wall_s - 1.0, "ratio");
}

/// Share of traced time the ledger leaves unaccounted, worst traced unit.
/// Single runs: the profiled run against set-up + named layers + overhead.
/// The sweep: also point time no probe/bdp/confirm span covers, and busy
/// time beyond what the pool's threads could supply in the unit's wall.
double unattributed_frac(const std::vector<UnitRecord>& units, int threads) {
  double worst = 0.0;
  for (const UnitRecord& u : units) {
    if (!u.traced) continue;
    const EngineTally& e = u.outcome.engine;
    const SearchTally& s = u.outcome.search;
    double frac = 0.0;
    if (s.busy_s > 0.0) {
      const double capacity_s = static_cast<double>(threads) * u.wall_s;
      frac = (engine_remainder_s(e) + s.point_self_s + std::max(0.0, s.busy_s - capacity_s)) /
             capacity_s;
    } else if (e.run_s > 0.0) {
      frac = engine_remainder_s(e) / e.run_s;
    }
    worst = std::max(worst, frac);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: rbs_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--scale full|tiny] [--expect-digest HEX] [--revision STR] [--spans PATH]\n");
    return 2;
  }
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "rbs_perfbench: refusing to report from a %s\n", why);
    return 2;
  }
  const int nproc = static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  const std::unique_ptr<Workload> workload =
      perfbench::make_workload(args.workload, args.scale, args.seed, nproc);
  if (!workload) {
    std::fprintf(stderr, "rbs_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  char provenance[1024];
  std::snprintf(provenance, sizeof provenance,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"scale\": \"%s\", \"nproc\": %d, \"threads\": %d, \"backend\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", \"revision\": \"%s\"}",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.scale == perfbench::Scale::kTiny ? "tiny" : "full",
                nproc, workload->threads(), workload->backend(), RBS_PERFBENCH_COMPILER,
                RBS_PERFBENCH_BUILD_TYPE, json_escape(args.revision).c_str());
  std::printf("{\"provenance\": %s}\n", provenance);
  std::fflush(stdout);

  SpanLog log;
  Calibration calibration;
  std::vector<UnitRecord> units;
  std::uint64_t failed = 0;
  std::string reference = args.expect_digest;
  std::string first_record;
  // Stop once the next unit, as long as the last one, would overrun the
  // window; the traced loop needs at least two of each kind.
  const std::size_t min_units = args.trace ? 4 : 3;
  bool peak_reset = false;
  const auto window_start = Clock::now();
  while (units.size() < min_units ||
         seconds_since(window_start) + units.back().wall_s <= args.seconds) {
    UnitRecord rec;
    rec.traced = args.trace && units.size() % 2 == 1;
    const int run = static_cast<int>(units.size());
    rec.calibration_s = calibration.run();
    bool ok = true;
    auto start = Clock::now();
    double cpu_start = cpu_seconds();
    try {
      // Set-up samples are spread over the window so that they see the
      // same host phases as the units.
      for (int i = 0; i < (units.empty() ? kFirstSetups : kSetupsPerUnit); ++i) {
        const int span = args.trace ? log.open("setup", -1, run) : -1;
        rec.setup_s.push_back(workload->setup_once());
        if (span >= 0) log.close(span);
      }
      peak_reset = reset_peak_rss();
      cpu_start = cpu_seconds();
      start = Clock::now();
      const int span = rec.traced ? log.open("unit", -1, run) : -1;
      rec.outcome = workload->run_unit(rec.traced ? &log : nullptr, run, span);
      if (span >= 0) log.close(span);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rbs_perfbench: unit %d threw: %s\n", run, e.what());
      ok = false;
    }
    rec.wall_s = seconds_since(start);
    rec.cpu_s = cpu_seconds() - cpu_start;
    rec.peak_rss_mb = peak_rss_mb();
    if (ok) {
      const std::string digest = perfbench::digest_of(rec.outcome.record);
      if (first_record.empty()) first_record = rec.outcome.record;
      if (reference.empty()) reference = digest;
      if (digest != reference) {
        std::fprintf(stderr, "rbs_perfbench: unit %d digest %s != expected %s\n", run,
                     digest.c_str(), reference.c_str());
        ok = false;
      }
      if (!rec.outcome.violation.empty()) {
        std::fprintf(stderr, "rbs_perfbench: unit %d outside the physical envelope: %s\n", run,
                     rec.outcome.violation.c_str());
        ok = false;
      }
    }
    if (!ok) ++failed;
    units.push_back(std::move(rec));
  }
  const double last_calibration_s = calibration.run();
  for (std::size_t i = 0; i < units.size(); ++i) {
    const double after = i + 1 < units.size() ? units[i + 1].calibration_s : last_calibration_s;
    units[i].scale = kNominalCalibrationS / std::min(units[i].calibration_s, after);
  }

  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitRecord& u = units[i];
    std::printf("unit %3zu %-8s host %.6f s  calibration %.6f s  scaled %.6f s\n", i,
                u.traced ? "traced" : "untraced", u.wall_s, u.calibration_s, u.wall_s * u.scale);
  }

  std::vector<double> walls;
  std::vector<double> host_walls;
  std::vector<double> setups;
  std::vector<double> calibrations;
  std::vector<double> peaks;
  for (const UnitRecord& u : units) {
    calibrations.push_back(u.calibration_s);
    for (const double s : u.setup_s) setups.push_back(s * u.scale);
    if (u.traced) continue;
    peaks.push_back(u.peak_rss_mb);
    walls.push_back(u.wall_s * u.scale);
    host_walls.push_back(u.wall_s);
  }
  const double wall_s = median(walls);
  const double setup_s = median(setups);
  // Per unit: how many points of the sweep overlap varies with timing.
  const double peak_mb = median(peaks);
  const double fail_ratio =
      units.empty() ? 1.0 : static_cast<double>(failed) / static_cast<double>(units.size());

  std::printf("digest %s over %zu units; outputs of unit 0:\n%s", reference.c_str(),
              units.size(), first_record.c_str());
  std::printf("host speed  calibration median %.4f s, nominal %.4f s (checksum %llx)\n",
              median(calibrations), kNominalCalibrationS,
              static_cast<unsigned long long>(calibration.checksum()));
  std::printf("wall_s      %.6f s  (median of %zu untraced units; %.6f host s unscaled)\n",
              wall_s, walls.size(), median(host_walls));
  std::printf("setup_s     %.6f s  (median of %zu set-ups)\n", setup_s, setups.size());
  std::printf("peak_rss_mb %.1f MB  (median over untraced units%s)\n", peak_mb,
              peak_reset ? "" : "; process lifetime, clear_refs unavailable");
  std::printf("fail_ratio  %.4f  (%llu of %zu units)\n", fail_ratio,
              static_cast<unsigned long long>(failed), units.size());

  MetricList metrics;
  bool correct = failed == 0;
  if (!args.trace) {
    metrics.add("wall_s", wall_s, "s");
    metrics.add("setup_s", setup_s, "s");
    metrics.add("peak_rss_mb", peak_mb, "MB");
  } else {
    add_ledger(metrics, units, wall_s, workload->threads());
    const double unattributed = unattributed_frac(units, workload->threads());
    metrics.add("trace.unattributed_frac", unattributed, "ratio");
    if (unattributed > kUnattributedTolerance) {
      std::fprintf(stderr, "rbs_perfbench: ledger leaves %.4f of traced time unattributed "
                           "(tolerance %.2f)\n", unattributed, kUnattributedTolerance);
      correct = false;
    }
    metrics.print_table();
    if (!args.spans_path.empty() && !log.write_json(args.spans_path, provenance)) {
      std::fprintf(stderr, "rbs_perfbench: cannot write spans to %s\n", args.spans_path.c_str());
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", units.size(), static_cast<unsigned long long>(failed),
              metrics.to_json().c_str());
  return correct ? 0 : 1;
}
