// Parallel sweep runner: executes independent experiment points on a small
// thread pool with a deterministic result contract.
//
// Every reproduction figure is a batch of independent simulations, one per
// (scenario, seed, buffer-size) point. Each point builds its own
// sim::Simulation, so a point computes bitwise the same result serially,
// concurrently, or on any core count. The runner only changes *when* points
// execute, never *what* they compute: point i writes only results[i],
// points are handed out as chunked index ranges, and nothing in src/ has
// mutable global state (tests/sweep_test.cpp asserts parallel == serial).
//
// Dispatch is a plain pool (experiment/dispatch_protocol.hpp): all of its
// state sits under one mutex, helpers sleep on a condition variable until a
// batch has a chunk to claim, and the calling thread works every batch as
// worker 0. Points run for milliseconds to seconds, so one lock round per
// chunk costs nothing measurable (see BENCH_engine.json).
//
// Thread count: explicit argument > RBS_THREADS env var > hardware
// concurrency, capped at kMaxSweepThreads. A single-threaded runner
// degenerates to an in-order serial loop on the calling thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace rbs::experiment {

/// Most worker threads a SweepRunner starts; a larger count is a typo.
inline constexpr int kMaxSweepThreads = 256;

/// Worker threads a sweep uses when not told otherwise: RBS_THREADS if set
/// and non-empty (a decimal integer in [1, kMaxSweepThreads], else
/// std::invalid_argument naming the variable), else the hardware
/// concurrency clamped to kMaxSweepThreads.
[[nodiscard]] int default_sweep_threads();

/// The thread count SweepRunner{threads} runs with: threads <= 0 selects
/// default_sweep_threads(); a count above kMaxSweepThreads throws
/// std::invalid_argument. Starts no thread.
[[nodiscard]] int resolve_sweep_threads(int threads);

/// Observation hooks around each sweep point, for progress display and
/// profiling (see telemetry::SweepProfile). Hooks fire on worker threads —
/// possibly several at once — so implementations must synchronize
/// internally. `worker` is the executing worker's index in [0, threads());
/// worker 0 is the calling thread, helpers are 1..threads()-1, and the
/// serial fallback reports worker 0. on_point_done does not fire for a
/// point that threw (its exception aborts the batch and is rethrown).
struct SweepObserver {
  std::function<void(std::size_t index, int worker)> on_point_start;
  std::function<void(std::size_t index, int worker)> on_point_done;
};

/// Cumulative dispatch counters for one worker: how many index ranges it
/// claimed and how many points those ranges held (a point skipped because
/// an earlier one in its range threw still counts). A healthy parallel
/// batch shows every worker claiming a similar number of chunks; one worker
/// owning nearly all points means the others never woke in time (or the
/// batch was too small to share).
struct WorkerDispatchStats {
  std::uint64_t chunks{0};
  std::uint64_t points{0};
};

/// A reusable pool of worker threads for running independent experiment
/// points. Construction spawns threads()-1 helpers (the caller is worker 0);
/// destruction joins them. The count is validated (resolve_sweep_threads)
/// before any thread starts.
class SweepRunner {
 public:
  /// threads <= 0 selects default_sweep_threads(). `checked` enables the
  /// sweep's own invariant audit: every batch tracks per-index execution
  /// counts and throws std::runtime_error if any point ran zero or multiple
  /// times (a broken work-distribution protocol would otherwise surface as
  /// silently wrong results). Costs one atomic increment per point.
  explicit SweepRunner(int threads = 0, bool checked = false);
  ~SweepRunner();
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  [[nodiscard]] int threads() const noexcept { return num_threads_; }
  [[nodiscard]] bool checked() const noexcept { return checked_; }

  /// Installs (or clears, with {}) the observation hooks. Must not be
  /// called while a batch is running.
  void set_observer(SweepObserver observer) { observer_ = std::move(observer); }

  /// Runs point(i) for every i in [0, n), distributing chunked index ranges
  /// across the pool (the calling thread works too), and blocks until all
  /// complete. `point` must confine its writes to per-index storage. The
  /// first exception thrown by a point is rethrown here after all workers
  /// drain.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& point);

  /// Worker-aware variant: the executing worker's index in [0, threads())
  /// is passed alongside the point index. Same contract as above.
  void run_indexed(std::size_t n, const std::function<void(std::size_t, int)>& point);

  /// Maps i -> point(i) into a vector in index order. R must be default-
  /// constructible and movable. Each point writes its own out[i], so the
  /// output is identical to a serial loop regardless of interleaving.
  template <typename R, typename F>
  std::vector<R> map(std::size_t n, F&& point) {
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs elements into shared words, so two "
                  "points writing out[i] concurrently would race");
    std::vector<R> out(n);
    run_indexed(n, [&](std::size_t i) { out[i] = point(i); });
    return out;
  }

  /// Per-worker dispatch counters, cumulative since construction. Index 0
  /// is the calling thread. Safe to call concurrently with a running batch:
  /// the copy is taken under the dispatch mutex, and a worker bumps its
  /// counters in the same critical section as the claim they count, so a
  /// snapshot never shows half a claim. Pinned by the model in
  /// tests/mc/dispatch_stats_mc_test.cpp.
  [[nodiscard]] std::vector<WorkerDispatchStats> dispatch_stats() const;

 private:
  struct Impl;
  int num_threads_;
  bool checked_;
  SweepObserver observer_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rbs::experiment
