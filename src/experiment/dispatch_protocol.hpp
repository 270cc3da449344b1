// SweepRunner's dispatch: one block of state under one mutex, and the
// protocol over it as free functions.
//
// sweep.cpp calls these and nothing else touches the state; tests/mc/ runs
// the same functions on virtual threads under RBS_MODEL_CHECK. The state is
// spelled with check/mc/types.hpp: plain std types in production, schedule
// points in a model.
//
// Every field is RBS_GUARDED_BY(mutex), so under Clang's -Wthread-safety an
// access without the lock is a compile error; scripts/check_thread_safety.py
// pokes each field it finds declared here and requires that error.
//
// Protocol, every step under the mutex:
//   publish   worker 0 stores the batch (point fn, size, chunk width),
//             resets the cursor and wakes every helper.
//   claim     a worker takes [next_index, next_index + chunk), counts it in
//             flight and bumps its own counters, then runs the chunk with
//             the lock released.
//   check in  the worker records the first point exception (moving the
//             cursor to the end skips the rest of the batch), drops
//             in_flight, and wakes worker 0 once the batch is drained.
//   drain     worker 0, out of chunks, waits until the cursor is exhausted
//             and nothing is in flight, then closes the batch (null point).
//   shutdown  the destructor raises shutting_down and wakes every helper.
//             A helper tests the flag and sleeps under the lock, so a flag
//             raised outside it could land between the two and the wakeup
//             would be lost.
//
// The ProtocolMutation hooks switch in one realistic bug each, and
// tests/mc/dispatch_mutation_test.cpp requires the explorer to catch every
// one with a replayable trace. Production compiles none of them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "check/mc/types.hpp"
#include "core/thread_annotations.hpp"
#include "experiment/sweep.hpp"

namespace rbs::experiment::detail {

#ifdef RBS_MODEL_CHECK
enum class ProtocolMutation {
  kNone,
  kClaimOutsideLock,      // worker 0 claims without the mutex
  kCounterOutsideLock,    // counters bumped after the claim's critical section
  kShutdownOutsideLock,   // shutting_down raised without the mutex
  kDropShutdownNotify,    // shutdown wakes no helper
  kDrainIgnoresInFlight,  // drain returns while a chunk still runs
};
/// Written by single-threaded test code around explore(); read by the model.
inline ProtocolMutation g_protocol_mutation = ProtocolMutation::kNone;
inline bool protocol_mutation_is(ProtocolMutation m) { return g_protocol_mutation == m; }
#endif

using PointFn = std::function<void(std::size_t, int)>;

/// One worker's cumulative dispatch counters.
struct WorkerCounters {
  check::mc::NonAtomic<std::uint64_t> chunks;
  check::mc::NonAtomic<std::uint64_t> points;
};

/// The state shared by worker 0 (the caller) and the helper threads. The
/// cursor, the shutdown flag and the counters are written while other
/// workers run; as mc::NonAtomic cells (a plain value in production) any
/// access to them outside the mutex is a data race a model reports.
struct SweepBatchState {
  explicit SweepBatchState(std::size_t workers) : counters(workers) {}

  check::mc::Mutex mutex;
  check::mc::CondVar work_ready;  // helpers: a batch opened, or shutdown
  check::mc::CondVar batch_done;  // worker 0: the batch drained

  const PointFn* point RBS_GUARDED_BY(mutex) = nullptr;  // null between batches
  std::size_t batch_size RBS_GUARDED_BY(mutex) = 0;
  std::size_t chunk RBS_GUARDED_BY(mutex) = 1;
  check::mc::NonAtomic<std::size_t> next_index RBS_GUARDED_BY(mutex){0};
  std::size_t in_flight RBS_GUARDED_BY(mutex) = 0;  // chunks claimed, not checked in
  check::mc::NonAtomic<bool> shutting_down RBS_GUARDED_BY(mutex){false};
  std::exception_ptr first_error RBS_GUARDED_BY(mutex);
  std::vector<WorkerCounters> counters RBS_GUARDED_BY(mutex);
};

/// A claimed index range [begin, end); an empty claim has a null point.
struct Claim {
  const PointFn* point = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

inline void count_chunk_locked(SweepBatchState& st, int worker, std::size_t points)
    RBS_REQUIRES(st.mutex) {
  WorkerCounters& mine = st.counters[static_cast<std::size_t>(worker)];
  mine.chunks.store(mine.chunks.load() + 1);
  mine.points.store(mine.points.load() + points);
}

/// Takes the open batch's next chunk for `worker`, if it has one.
inline Claim claim_locked(SweepBatchState& st, int worker) RBS_REQUIRES(st.mutex) {
  if (st.point == nullptr) return {};
  const std::size_t begin = st.next_index.load();
  if (begin >= st.batch_size) return {};
  const std::size_t end = std::min(begin + st.chunk, st.batch_size);
  st.next_index.store(end);
  ++st.in_flight;
#ifdef RBS_MODEL_CHECK
  if (protocol_mutation_is(ProtocolMutation::kCounterOutsideLock)) return {st.point, begin, end};
#endif
  count_chunk_locked(st, worker, end - begin);
  return {st.point, begin, end};
}

inline bool batch_drained_locked(SweepBatchState& st) RBS_REQUIRES(st.mutex) {
#ifdef RBS_MODEL_CHECK
  if (protocol_mutation_is(ProtocolMutation::kDrainIgnoresInFlight)) {
    return st.next_index.load() >= st.batch_size;
  }
#endif
  return st.next_index.load() >= st.batch_size && st.in_flight == 0;
}

/// The worker's next chunk. A helper (`until_shutdown`) sleeps until there
/// is one and gets an empty claim only at shutdown; worker 0 gets an empty
/// claim as soon as the open batch has no unclaimed chunk.
inline Claim next_claim(SweepBatchState& st, int worker, bool until_shutdown) {
#ifdef RBS_MODEL_CHECK
  if (protocol_mutation_is(ProtocolMutation::kClaimOutsideLock) && !until_shutdown) {
    return claim_locked(st, worker);
  }
#endif
  check::mc::CvLock lock{st.mutex};
  for (;;) {
    if (st.shutting_down.load()) return {};
    const Claim claim = claim_locked(st, worker);
    if (claim.point != nullptr || !until_shutdown) return claim;
    check::mc::cv_wait(st.work_ready, lock);
  }
}

/// Runs a claimed chunk unlocked, then checks it in. A throwing point ends
/// the chunk and the batch; the batch still drains.
inline void run_chunk(SweepBatchState& st, const Claim& claim, int worker) {
#ifdef RBS_MODEL_CHECK
  if (protocol_mutation_is(ProtocolMutation::kCounterOutsideLock)) {
    count_chunk_locked(st, worker, claim.end - claim.begin);
  }
#endif
  std::exception_ptr error;
  for (std::size_t i = claim.begin; i < claim.end && !error; ++i) {
    try {
      (*claim.point)(i, worker);
    }
    RBS_MC_RETHROW_ABORT
    catch (...) {
      error = std::current_exception();
    }
  }
  check::mc::LockGuard lock{st.mutex};
  if (error) {
    if (!st.first_error) st.first_error = error;
    st.next_index.store(st.batch_size);
  }
  --st.in_flight;
  if (batch_drained_locked(st)) st.batch_done.notify_one();
}

/// Claims and runs chunks until next_claim() comes back empty. Worker 0
/// calls it once per batch; it is the whole body of each helper thread.
inline void dispatch_work(SweepBatchState& st, int worker, bool until_shutdown) {
  for (Claim claim; (claim = next_claim(st, worker, until_shutdown)).point != nullptr;) {
    run_chunk(st, claim, worker);
  }
}

inline void dispatch_publish(SweepBatchState& st, const PointFn& point, std::size_t n,
                             std::size_t width) {
  check::mc::LockGuard lock{st.mutex};
  st.point = &point;
  st.batch_size = n;
  st.chunk = width;
  st.next_index.store(0);
  st.first_error = nullptr;
  st.work_ready.notify_all();
}

/// Waits for the batch to drain, closes it, and returns its first point
/// exception (null if none).
inline std::exception_ptr dispatch_drain_and_close(SweepBatchState& st) {
  check::mc::CvLock lock{st.mutex};
  while (!batch_drained_locked(st)) check::mc::cv_wait(st.batch_done, lock);
  st.point = nullptr;
  return std::exchange(st.first_error, nullptr);
}

/// Counts a batch worker 0 runs serially as one chunk.
inline void dispatch_count_serial(SweepBatchState& st, std::size_t n) {
  check::mc::LockGuard lock{st.mutex};
  count_chunk_locked(st, 0, n);
}

inline std::vector<WorkerDispatchStats> dispatch_stats_snapshot(SweepBatchState& st) {
  check::mc::LockGuard lock{st.mutex};
  std::vector<WorkerDispatchStats> out;
  for (const WorkerCounters& c : st.counters) out.push_back({c.chunks.load(), c.points.load()});
  return out;
}

inline void dispatch_shutdown(SweepBatchState& st) {
#ifdef RBS_MODEL_CHECK
  if (protocol_mutation_is(ProtocolMutation::kShutdownOutsideLock)) {
    st.shutting_down.store(true);
    st.work_ready.notify_all();
    return;
  }
#endif
  {
    check::mc::LockGuard lock{st.mutex};
    st.shutting_down.store(true);
  }
#ifdef RBS_MODEL_CHECK
  if (protocol_mutation_is(ProtocolMutation::kDropShutdownNotify)) return;
#endif
  st.work_ready.notify_all();
}

}  // namespace rbs::experiment::detail
