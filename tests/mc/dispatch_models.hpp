// Models of the sweep dispatch protocol, shared by the suites that must
// pass on the real protocol (dispatch_protocol_mc_test.cpp,
// dispatch_stats_mc_test.cpp) and the mutation-kill suite
// (dispatch_mutation_test.cpp): each mutation is killed by the very model
// that passes without it.
//
// Each model runs the REAL dispatch_* functions on small configurations.
// Per-index run counters are plain ints: only one virtual thread runs
// between schedule points, so they need no synchronization *inside the
// model* — the invariant they count is the protocol's, not theirs.
#pragma once

#include <cstddef>
#include <exception>

#include "experiment/dispatch_protocol.hpp"

namespace dispatch_models {

namespace mc = rbs::check::mc;
using rbs::experiment::detail::dispatch_drain_and_close;
using rbs::experiment::detail::dispatch_publish;
using rbs::experiment::detail::dispatch_shutdown;
using rbs::experiment::detail::dispatch_stats_snapshot;
using rbs::experiment::detail::dispatch_work;
using rbs::experiment::detail::PointFn;
using rbs::experiment::detail::SweepBatchState;

/// The real state, with its cells named for violation traces.
struct NamedState : SweepBatchState {
  explicit NamedState(std::size_t workers) : SweepBatchState(workers) {
    mc::set_name(&mutex, "mutex");
    mc::set_name(&work_ready, "work_ready");
    mc::set_name(&batch_done, "batch_done");
    mc::set_name(&next_index, "next_index");
    mc::set_name(&shutting_down, "shutting_down");
    for (auto& c : counters) {
      mc::set_name(&c.chunks, "counters.chunks");
      mc::set_name(&c.points, "counters.points");
    }
  }
};

/// Spawns the helper thread body for `worker`.
inline mc::ThreadHandle spawn_helper(SweepBatchState& st, int worker) {
  return mc::spawn([&st, worker] { dispatch_work(st, worker, /*until_shutdown=*/true); });
}

/// Worker 0's side of one batch: publish, work, drain.
inline std::exception_ptr run_batch(SweepBatchState& st, const PointFn& fn, std::size_t n,
                                    std::size_t width) {
  dispatch_publish(st, fn, n, width);
  dispatch_work(st, 0, /*until_shutdown=*/false);
  return dispatch_drain_and_close(st);
}

/// One helper races the caller for two indices; each runs exactly once.
inline void exactly_once_model() {
  NamedState st{2};
  int runs[2] = {0, 0};
  const PointFn fn = [&](std::size_t i, int) { ++runs[i]; };
  auto helper = spawn_helper(st, 1);

  mc::require(run_batch(st, fn, /*n=*/2, /*width=*/1) == nullptr, "unexpected captured error");
  mc::require(runs[0] == 1, "index 0 not executed exactly once");
  mc::require(runs[1] == 1, "index 1 not executed exactly once");

  dispatch_shutdown(st);
  mc::join(helper);
}

/// Shutdown races a helper that never sees a batch: before it takes the
/// lock, between its flag test and its wait, and asleep. It terminates, and
/// makes no claim.
inline void shutdown_model() {
  NamedState st{2};
  auto helper = spawn_helper(st, 1);
  dispatch_shutdown(st);
  mc::join(helper);
  mc::require(dispatch_stats_snapshot(st)[1].chunks == 0,
              "helper claimed a chunk with no batch published");
}

/// Points write race-checked result cells; the caller reads them after the
/// drain. A drain that returns while a helper is still writing is a
/// detected data race.
inline void result_reads_model() {
  NamedState st{2};
  mc::NonAtomic<int> results[2];
  mc::set_name(&results[0], "results[0]");
  mc::set_name(&results[1], "results[1]");
  const PointFn fn = [&](std::size_t i, int) { results[i].store(static_cast<int>(i) + 10); };
  auto helper = spawn_helper(st, 1);

  mc::require(run_batch(st, fn, 2, 1) == nullptr, "unexpected captured error");
  // The drain's mutex handoff is the happens-before edge under test.
  mc::require(results[0].load() == 10, "result 0 lost");
  mc::require(results[1].load() == 11, "result 1 lost");

  dispatch_shutdown(st);
  mc::join(helper);
}

/// The caller takes a dispatch_stats() snapshot while a helper claims, and
/// another after the drain. Each snapshot shows whole claims only (width 2,
/// so points == 2 * chunks for every worker), the second never shows less
/// than the first, and it counts the batch exactly.
inline void stats_snapshot_model() {
  NamedState st{2};
  const PointFn fn = [](std::size_t, int) {};
  auto helper = spawn_helper(st, 1);

  dispatch_publish(st, fn, /*n=*/4, /*width=*/2);
  const auto during = dispatch_stats_snapshot(st);
  dispatch_work(st, 0, /*until_shutdown=*/false);
  mc::require(dispatch_drain_and_close(st) == nullptr, "unexpected captured error");
  const auto after = dispatch_stats_snapshot(st);

  for (std::size_t w = 0; w < 2; ++w) {
    mc::require(during[w].points == 2 * during[w].chunks, "snapshot shows half a claim");
    mc::require(after[w].chunks >= during[w].chunks && after[w].points >= during[w].points,
                "counters went backwards");
  }
  mc::require(after[0].points + after[1].points == 4, "final snapshot miscounts the batch");

  dispatch_shutdown(st);
  mc::join(helper);
}

}  // namespace dispatch_models
