// rbs-analyze-fixture-expect: R2 R2 R2 R2 R2
// Iterating an unordered container where the body's side effects make the
// (hash-layout-dependent) visit order observable, and unordered containers
// declared without a waiver that says why their order cannot leak.
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

struct Sim {
  void after(long delay_ps, void (*fn)());
};

struct Workload {
  std::unordered_map<std::int64_t, int> active_;  // R2: declared, no waiver
  std::unordered_set<std::int64_t> pending_;      // R2: declared, no waiver
  Sim sim_;

  void kick() {
    for (const auto& [id, state] : active_) {  // R2: schedules in hash order
      sim_.after(id, nullptr);
    }
  }

  void dump() {
    for (const auto id : pending_) {  // R2: prints in hash order
      std::printf("%lld\n", static_cast<long long>(id));
    }
  }
};

std::unordered_multimap<std::int64_t, int> g_by_flow;  // R2: declared, no waiver
