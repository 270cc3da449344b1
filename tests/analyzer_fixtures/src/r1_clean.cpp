// rbs-analyze-fixture-expect:
// Deterministic twins of everything r1_violation.cpp does wrong.
#include <cstdint>
#include <map>

struct Rng {
  explicit Rng(std::uint64_t seed);
  Rng fork(std::uint64_t stream) const;
  double uniform();
};

struct Config {
  std::uint64_t seed{1};
};

struct SimTime {
  static SimTime milliseconds(std::int64_t ms);
};

struct Sim {
  SimTime time() const;  // a declarator, not a call to the C library
};

double good_entropy(const Config& config) {
  Rng rng{config.seed};  // seeded from the run configuration
  return rng.fork(0x51EED).uniform();
}

using FlowId = std::int64_t;
std::map<FlowId, int> g_flow_weights;  // value-keyed: stable iteration order

SimTime now(const Sim& sim) { return sim.time(); }  // member call: simulated time

const SimTime kOneMillisecond = SimTime::milliseconds(1);  // factory, no tick literal
constexpr std::int64_t kFlowIdOffset = 1'000'000;  // two groups: a count, not a time
