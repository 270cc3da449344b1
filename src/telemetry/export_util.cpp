#include "telemetry/export_util.hpp"

#include <cmath>
#include <cstdio>

namespace rbs::telemetry::detail {

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void json_escape_into(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string csv_cell(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace rbs::telemetry::detail
