// Positive thread-safety fixture: every guarded SweepBatchState access
// below holds the mutex through core::LockGuard / core::CvLock, so this TU
// must compile cleanly under -Wthread-safety -Werror=thread-safety (see
// scripts/check_thread_safety.py).
#include <cstddef>

#include "core/thread_annotations.hpp"
#include "experiment/dispatch_protocol.hpp"

namespace {

std::size_t guarded_reads(rbs::experiment::detail::SweepBatchState& state) {
  rbs::core::LockGuard lock{state.mutex};
  return state.batch_size + state.chunk + state.next_index.load() + state.in_flight +
         static_cast<std::size_t>(state.shutting_down.load()) +
         static_cast<std::size_t>(state.point != nullptr) +
         static_cast<std::size_t>(static_cast<bool>(state.first_error)) +
         static_cast<std::size_t>(state.counters.front().points.load());
}

void guarded_writes(rbs::experiment::detail::SweepBatchState& state) {
  rbs::core::CvLock lock{state.mutex};
  state.batch_size = 8;
  state.chunk = 2;
  state.next_index.store(0);
  state.in_flight = 0;
  state.shutting_down.store(false);
  state.first_error = nullptr;
  state.point = nullptr;
  state.counters.front().chunks.store(1);
}

}  // namespace

int run_fixture(rbs::experiment::detail::SweepBatchState& state) {
  guarded_writes(state);
  return static_cast<int>(guarded_reads(state));
}
