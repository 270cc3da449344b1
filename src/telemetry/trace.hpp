// Low-overhead binary event tracer with Chrome trace_event JSON export.
//
// A TraceSession is a fixed-capacity ring buffer of 80-byte binary records.
// Producers (links, TCP endpoints, samplers, the invariant auditor) append
// span ("complete"), instant, and counter events stamped with simulated
// time; to_chrome_json() renders the buffer as the Chrome trace_event
// format, loadable in chrome://tracing or https://ui.perfetto.dev, so every
// subsystem's events line up on one clock, and to_text() renders it as one
// tcpdump-style line per event.
//
// Appending costs one bounds check and one 80-byte store. When the buffer
// fills, the oldest events are overwritten (dropped_events() counts them) —
// a trace always holds the most recent window of the run.
//
// Producers guard each emit with `if (auto* tr = sim.trace())`, so a run
// with no session attached pays one null-pointer check per emit site.
//
// Tracks: an event may name the track it happened on (a link, say) by the
// id track() hands out. Chrome exports the track as the event's `pid`, with
// one `process_name` metadata record per track, so Perfetto groups a link's
// packets, drops and queue depth together. Track 0 is "no track".
//
// Name/category strings: events store `const char*`. Pass string literals,
// or intern() dynamic names through the session (interned storage lives as
// long as the session, so exports never dangle).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"
#include "sim/time.hpp"

namespace rbs::telemetry {

/// One named small-integer argument attached to an event.
struct TraceArg {
  const char* name{nullptr};
  std::int64_t value{0};
};

/// One binary trace record. `ph` follows the Chrome trace_event phase
/// letters: 'X' complete (span with duration), 'i' instant, 'C' counter.
struct TraceEvent {
  std::int64_t ts_ps{0};
  std::int64_t dur_ps{0};
  const char* name{""};
  const char* cat{""};
  TraceArg args[2]{};
  std::int32_t detail{-1};  ///< index into the session's detail-string table
  std::uint32_t tid{0};     ///< Chrome thread id; producers use it as a lane (e.g. flow id)
  std::uint32_t track{0};   ///< TraceSession::track() id, 0 = none; exported as the pid
  char ph{'i'};
};
static_assert(sizeof(TraceEvent) == 80, "the ring's memory bound assumes 80-byte records");

/// Ring-buffered event collector for one run. Not thread-safe: attach one
/// session per Simulation (parallel sweep points must not share one).
class TraceSession {
 public:
  RBS_THREAD_CONFINED(
      "producers emit on the one thread driving the attached Simulation; the "
      "ring buffer and string-interning tables carry no locks by design.");

  /// `capacity` bounds memory at 80 bytes/event; the default holds the
  /// most recent 256k events (20 MiB).
  explicit TraceSession(std::size_t capacity = 256 * 1024);

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void instant(const char* cat, const char* name, sim::SimTime ts, TraceArg a0 = {},
               TraceArg a1 = {}, std::uint32_t tid = 0, std::uint32_t track = 0) {
    TraceEvent e;
    e.ts_ps = ts.ps();
    e.name = name;
    e.cat = cat;
    e.args[0] = a0;
    e.args[1] = a1;
    e.tid = tid;
    e.track = track;
    e.ph = 'i';
    push(e);
  }

  /// A span covering [ts, ts + dur] — e.g. one packet's time at one hop.
  void complete(const char* cat, const char* name, sim::SimTime ts, sim::SimTime dur,
                TraceArg a0 = {}, TraceArg a1 = {}, std::uint32_t tid = 0,
                std::uint32_t track = 0) {
    TraceEvent e;
    e.ts_ps = ts.ps();
    e.dur_ps = dur.ps();
    e.name = name;
    e.cat = cat;
    e.args[0] = a0;
    e.args[1] = a1;
    e.tid = tid;
    e.track = track;
    e.ph = 'X';
    push(e);
  }

  /// A counter track sample (queue depth, cwnd sum, utilization, ...).
  /// Chrome renders each distinct (`track`, `name`) as one counter track.
  /// Values are stored fixed-point at micro-resolution (six decimals survive
  /// export), so fractional series like utilization keep their shape.
  void counter(const char* cat, const char* name, sim::SimTime ts, double value,
               std::uint32_t track = 0) {
    TraceEvent e;
    e.ts_ps = ts.ps();
    e.name = name;
    e.cat = cat;
    e.args[0] = TraceArg{"value", static_cast<std::int64_t>(value * 1e6 + (value < 0 ? -0.5 : 0.5))};
    e.track = track;
    e.ph = 'C';
    push(e);
  }

  /// Instant event carrying a free-form string (auditor violation text).
  /// The string is stored in a session-owned side table; bounded use only.
  void instant_with_detail(const char* cat, const char* name, sim::SimTime ts,
                           std::string detail);

  /// Copies `s` into session-owned storage and returns a pointer valid for
  /// the session's lifetime. Deduplicated; cold-path only.
  const char* intern(const std::string& s);

  /// The id (>= 1) of the track called `name`, registered on first use.
  /// Cold-path only: producers look their track up once and cache it.
  std::uint32_t track(const std::string& name);
  /// The name of track `id`, or "-" for 0 and unknown ids.
  [[nodiscard]] const char* track_name(std::uint32_t id) const noexcept;

  /// Events currently buffered (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Oldest events overwritten after the ring filled.
  [[nodiscard]] std::uint64_t dropped_events() const noexcept { return dropped_; }
  /// All events ever recorded (buffered + dropped).
  [[nodiscard]] std::uint64_t total_events() const noexcept { return total_; }

  /// Buffered events oldest-first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Full Chrome trace_event JSON document ({"traceEvents":[...]}).
  /// Timestamps are microseconds (the trace_event unit), emitted with
  /// sub-microsecond decimals so picosecond ordering survives.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Writes to_chrome_json() to `path`, creating parent directories.
  /// Returns false (and prints to stderr) on failure.
  bool write_chrome_json(const std::string& path) const;

  /// One tcpdump-style line per event, in the given order: time (s), then
  /// category, name, track, `flow=<tid>` and the args as `key=value`;
  /// spans add `dur=<s>`. Pass a filtered events() to select a link
  /// (`track`) or a flow (`tid`).
  [[nodiscard]] std::string to_text(std::span<const TraceEvent> events) const;
  /// Every buffered event, plus a closing `#` line counting overwritten
  /// events when the ring has wrapped.
  [[nodiscard]] std::string to_text() const;

  void clear() noexcept {
    head_ = 0;
    count_ = 0;
    dropped_ = 0;
    total_ = 0;
  }

 private:
  void push(const TraceEvent& e) noexcept {
    ++total_;
    if (count_ < ring_.size()) {
      ring_[(head_ + count_) % ring_.size()] = e;
      ++count_;
    } else {
      ring_[head_] = e;  // overwrite the oldest
      head_ = (head_ + 1) % ring_.size();
      ++dropped_;
    }
  }

  std::vector<TraceEvent> ring_;
  std::size_t head_{0};
  std::size_t count_{0};
  std::uint64_t dropped_{0};
  std::uint64_t total_{0};
  /// Detail strings and interned names live as long as the session; a
  /// deque never relocates elements, so c_str() pointers stay valid.
  std::deque<std::string> detail_storage_;
  std::map<std::string, const char*> interned_;
  /// Track names by id - 1, and the reverse lookup.
  std::vector<const char*> track_names_;
  std::map<std::string, std::uint32_t> track_ids_;
};

}  // namespace rbs::telemetry
