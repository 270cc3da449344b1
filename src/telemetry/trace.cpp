#include "telemetry/trace.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "telemetry/export_util.hpp"

namespace rbs::telemetry {
namespace {

using detail::json_escape_into;

/// Picoseconds -> trace_event microseconds with enough decimals to keep
/// distinct sim times distinct (1 ps = 1e-6 us).
void append_us(std::string& out, std::int64_t ps) {
  char buf[48];
  const std::int64_t whole = ps / 1'000'000;
  const auto frac = static_cast<long>(ps % 1'000'000);
  std::snprintf(buf, sizeof buf, "%lld.%06ld", static_cast<long long>(whole),
                frac < 0 ? -frac : frac);
  out += buf;
}

/// A counter value stored fixed-point at micro-resolution, as a decimal.
void append_micros(std::string& out, std::int64_t v) {
  char buf[48];
  const std::uint64_t mag =
      v < 0 ? -static_cast<std::uint64_t>(v) : static_cast<std::uint64_t>(v);
  std::snprintf(buf, sizeof buf, "%s%llu.%06llu", v < 0 ? "-" : "",
                static_cast<unsigned long long>(mag / 1'000'000),
                static_cast<unsigned long long>(mag % 1'000'000));
  out += buf;
}

}  // namespace

TraceSession::TraceSession(std::size_t capacity) {
  ring_.resize(capacity == 0 ? 1 : capacity);
}

void TraceSession::instant_with_detail(const char* cat, const char* name, sim::SimTime ts,
                                       std::string detail) {
  detail_storage_.push_back(std::move(detail));
  TraceEvent e;
  e.ts_ps = ts.ps();
  e.name = name;
  e.cat = cat;
  e.detail = static_cast<std::int32_t>(detail_storage_.size() - 1);
  e.ph = 'i';
  push(e);
}

const char* TraceSession::intern(const std::string& s) {
  const auto it = interned_.find(s);
  if (it != interned_.end()) return it->second;
  detail_storage_.push_back(s);
  const char* p = detail_storage_.back().c_str();
  interned_.emplace(s, p);
  return p;
}

std::uint32_t TraceSession::track(const std::string& name) {
  const auto [it, inserted] =
      track_ids_.emplace(name, static_cast<std::uint32_t>(track_names_.size() + 1));
  if (inserted) track_names_.push_back(intern(name));
  return it->second;
}

const char* TraceSession::track_name(std::uint32_t id) const noexcept {
  return id >= 1 && id <= track_names_.size() ? track_names_[id - 1] : "-";
}

std::vector<TraceEvent> TraceSession::events() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string TraceSession::to_chrome_json() const {
  std::string out;
  out.reserve(count_ * 96 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // One metadata record per track names the Chrome process it exports as.
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(i + 1) +
           ",\"args\":{\"name\":\"";
    json_escape_into(out, track_names_[i]);
    out += "\"}}";
  }
  for (std::size_t i = 0; i < count_; ++i) {
    const TraceEvent& e = ring_[(head_ + i) % ring_.size()];
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json_escape_into(out, e.name);
    out += "\",\"cat\":\"";
    json_escape_into(out, e.cat);
    out += "\",\"ph\":\"";
    out += e.ph;
    out += "\",\"ts\":";
    append_us(out, e.ts_ps);
    if (e.ph == 'X') {
      out += ",\"dur\":";
      append_us(out, e.dur_ps);
    }
    out += ",\"pid\":" + std::to_string(e.track) + ",\"tid\":" + std::to_string(e.tid);
    if (e.ph == 'i') out += ",\"s\":\"g\"";  // global-scope instant (renders as a marker)
    std::string args;
    for (const TraceArg& a : e.args) {
      if (a.name == nullptr) continue;
      if (!args.empty()) args += ',';
      args += '"';
      json_escape_into(args, a.name);
      args += "\":";
      if (e.ph == 'C') {
        append_micros(args, a.value);
      } else {
        args += std::to_string(a.value);
      }
    }
    if (e.detail >= 0 && static_cast<std::size_t>(e.detail) < detail_storage_.size()) {
      if (!args.empty()) args += ',';
      args += "\"detail\":\"";
      json_escape_into(args, detail_storage_[static_cast<std::size_t>(e.detail)]);
      args += '"';
    }
    if (!args.empty()) out += ",\"args\":{" + args + "}";
    out += '}';
  }
  out += "],\"otherData\":{\"droppedEvents\":" + std::to_string(dropped_) + "}}";
  return out;
}

std::string TraceSession::to_text(std::span<const TraceEvent> events) const {
  std::string out;
  out.reserve(events.size() * 96);
  char buf[256];
  for (const TraceEvent& e : events) {
    std::snprintf(buf, sizeof buf, "%13.9f %-5s %-15s %-16s flow=%u",
                  static_cast<double>(e.ts_ps) * 1e-12, e.cat, e.name, track_name(e.track),
                  e.tid);
    out += buf;
    for (const TraceArg& a : e.args) {
      if (a.name == nullptr) continue;
      out += ' ';
      out += a.name;
      out += '=';
      if (e.ph == 'C') {
        append_micros(out, a.value);
      } else {
        out += std::to_string(a.value);
      }
    }
    if (e.ph == 'X') {
      std::snprintf(buf, sizeof buf, " dur=%.9f", static_cast<double>(e.dur_ps) * 1e-12);
      out += buf;
    }
    if (e.detail >= 0 && static_cast<std::size_t>(e.detail) < detail_storage_.size()) {
      out += " detail=\"" + detail_storage_[static_cast<std::size_t>(e.detail)] + '"';
    }
    out += '\n';
  }
  return out;
}

std::string TraceSession::to_text() const {
  std::string out = to_text(events());
  if (dropped_ > 0) {
    out += "# " + std::to_string(dropped_) + " older event(s) overwritten (ring capacity " +
           std::to_string(ring_.size()) + ")\n";
  }
  return out;
}

bool TraceSession::write_chrome_json(const std::string& path) const {
  const std::filesystem::path p{path};
  std::error_code ec;
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream f{p};
  if (!f) {
    std::fprintf(stderr, "telemetry: failed to open %s for writing\n", path.c_str());
    return false;
  }
  f << to_chrome_json();
  return static_cast<bool>(f);
}

}  // namespace rbs::telemetry
