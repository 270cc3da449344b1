// rbs-analyze-fixture-expect:
// The three sanctioned ways to touch an unordered container:
// key-lookup only, the collect-then-sort pattern, and a justified allow().
// The declaration itself carries the waiver that says which of them holds.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

struct Workload {
  // rbs-analyze: allow(R2) -- lookups; iteration is sorted or order-independent
  std::unordered_map<std::int64_t, int> active_;

  int lookup(std::int64_t id) const { return active_.at(id); }

  void dump_sorted() {
    std::vector<std::int64_t> ids;
    ids.reserve(active_.size());
    for (const auto& [id, state] : active_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (const auto id : ids) std::printf("%lld\n", static_cast<long long>(id));
  }

  std::int64_t sum() {
    std::int64_t total = 0;
    // rbs-analyze: allow(R2) -- summation is order-independent
    for (const auto& [id, state] : active_) total += state;
    return total;
  }
};
