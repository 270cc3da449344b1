#include "experiment/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>

#include "check/mc/types.hpp"
#include "experiment/dispatch_protocol.hpp"

namespace rbs::experiment {

int default_sweep_threads() {
  // Read-only environment probe, before any helper thread exists; no other
  // thread in this process mutates the environment.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("RBS_THREADS");
  if (env != nullptr && *env != '\0') {
    const char* end = env + std::strlen(env);
    int n = 0;
    const auto [stop, ec] = std::from_chars(env, end, n);
    if (ec != std::errc{} || stop != end || n < 1 || n > kMaxSweepThreads) {
      throw std::invalid_argument("RBS_THREADS='" + std::string{env} +
                                  "': want an integer in [1, " +
                                  std::to_string(kMaxSweepThreads) + "]");
    }
    return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, static_cast<unsigned>(kMaxSweepThreads)));
}

int resolve_sweep_threads(int threads) {
  if (threads <= 0) return default_sweep_threads();
  if (threads > kMaxSweepThreads) {
    throw std::invalid_argument("SweepRunner: " + std::to_string(threads) +
                                " threads exceeds the cap of " +
                                std::to_string(kMaxSweepThreads));
  }
  return threads;
}

// The protocol lives in experiment/dispatch_protocol.hpp; Impl only owns
// its state and the helper threads.
struct SweepRunner::Impl : detail::SweepBatchState {
  using detail::SweepBatchState::SweepBatchState;
  std::vector<std::thread> helpers;

  void stop_helpers() {
    detail::dispatch_shutdown(*this);
    for (std::thread& helper : helpers) helper.join();
  }
};

SweepRunner::SweepRunner(int threads, bool checked)
    : num_threads_{resolve_sweep_threads(threads)},
      checked_{checked},
      impl_{std::make_unique<Impl>(static_cast<std::size_t>(num_threads_))} {
  try {
    for (int i = 1; i < num_threads_; ++i) {
      impl_->helpers.emplace_back(
          [impl = impl_.get(), i] { detail::dispatch_work(*impl, i, /*until_shutdown=*/true); });
    }
  } catch (...) {
    // A failed spawn must not destroy the helpers already started unjoined.
    impl_->stop_helpers();
    throw;
  }
}

SweepRunner::~SweepRunner() { impl_->stop_helpers(); }

std::vector<WorkerDispatchStats> SweepRunner::dispatch_stats() const {
  return detail::dispatch_stats_snapshot(*impl_);
}

void SweepRunner::run_indexed(std::size_t n, const std::function<void(std::size_t)>& point) {
  run_indexed(n, std::function<void(std::size_t, int)>{
                     [&point](std::size_t i, int) { point(i); }});
}

void SweepRunner::run_indexed(std::size_t n,
                              const std::function<void(std::size_t, int)>& point) {
  if (n == 0) return;

  // Checked mode: count executions per index (by whichever worker claims it).
  std::unique_ptr<check::mc::Atomic<std::uint32_t>[]> executions;
  if (checked_) {
    executions = std::make_unique<check::mc::Atomic<std::uint32_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) executions[i].store(0, std::memory_order_relaxed);
  }

  const detail::PointFn instrumented = [&](std::size_t i, int worker) {
    if (checked_) executions[i].fetch_add(1, std::memory_order_relaxed);
    if (observer_.on_point_start) observer_.on_point_start(i, worker);
    point(i, worker);
    if (observer_.on_point_done) observer_.on_point_done(i, worker);
  };

  if (num_threads_ <= 1 || n == 1) {
    // Degenerate case: an in-order serial loop on the calling thread.
    detail::dispatch_count_serial(*impl_, n);
    for (std::size_t i = 0; i < n; ++i) instrumented(i, 0);
  } else {
    // Roughly 8 chunks per worker balances load (a straggling point only
    // delays its own chunk) against handout cost (one lock round per chunk,
    // not per point).
    const std::size_t workers = static_cast<std::size_t>(num_threads_);
    const std::size_t width = std::max<std::size_t>(1, n / (workers * 8));
    detail::dispatch_publish(*impl_, instrumented, n, width);
    detail::dispatch_work(*impl_, 0, /*until_shutdown=*/false);
    if (std::exception_ptr error = detail::dispatch_drain_and_close(*impl_)) {
      std::rethrow_exception(error);
    }
  }

  if (checked_) {
    // A throwing point was rethrown above, so the batch claims full
    // completion: every index must have run exactly once.
    for (std::size_t i = 0; i < n; ++i) {
      const auto count = executions[i].load(std::memory_order_relaxed);
      if (count != 1) {
        throw std::runtime_error("SweepRunner checked mode: point " + std::to_string(i) +
                                 " executed " + std::to_string(count) +
                                 " times (expected exactly once)");
      }
    }
  }
}

}  // namespace rbs::experiment
