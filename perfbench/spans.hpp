// In-memory span log for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// simulator (a run call, a bisection probe, a sweep point), kept in memory
// while the run is timed, and written out once at the end. Sweep observer
// hooks open spans from several worker threads at once, so the log is
// guarded by a mutex; the cost is one lock per span, and spans are opened
// per simulation run, never per event.
#pragma once

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name{""};
  double start_s{0.0};  ///< host seconds since the log was created
  double end_s{-1.0};   ///< < start_s while the span is open
  int parent{-1};       ///< index of the enclosing span, -1 for a root
  int run{0};           ///< unit of work the span belongs to
  int worker{-1};       ///< sweep worker that executed it, -1 off the pool

  [[nodiscard]] double duration_s() const { return end_s - start_s; }
};

class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span and returns its index. `name` must be a string literal.
  int open(const char* name, int parent, int run, int worker = -1) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock{mutex_};
    spans_.push_back(Span{name, t, -1.0, parent, run, worker});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Closes a span and returns its duration in seconds.
  double close(int index) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock{mutex_};
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_s = t;
    return span.duration_s();
  }

  /// Copy of every span; call once no worker can still be writing.
  [[nodiscard]] std::vector<Span> snapshot() const {
    const std::lock_guard<std::mutex> lock{mutex_};
    return spans_;
  }

  /// Writes {"provenance": ..., "spans": [...]} to `path`; false on I/O error.
  [[nodiscard]] bool write_json(const std::string& path, const std::string& provenance_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"provenance\": %s,\n \"spans\": [\n", provenance_json.c_str());
    const std::vector<Span> spans = snapshot();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"parent\": %d, \"run\": %d, \"worker\": %d}%s\n",
                   i, s.name, s.start_s, s.end_s, s.parent, s.run, s.worker,
                   i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, " ]}\n");
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  }

  const std::chrono::steady_clock::time_point epoch_{std::chrono::steady_clock::now()};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent, int run, int worker = -1)
      : log_{log}, index_{log.open(name, parent, run, worker)} {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench
