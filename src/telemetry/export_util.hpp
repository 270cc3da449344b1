// Deterministic export primitives shared by every telemetry serializer
// (metrics, sketches, flow stats, flight recorder).
//
// All exporters in this library promise bitwise-identical output for
// identical inputs: two identically seeded runs must diff clean, and the
// property tests compare merged-snapshot strings verbatim. That only works
// if every serializer renders numbers and escapes strings exactly the same
// way, so the helpers live here instead of being re-declared per TU.
#pragma once

#include <string>
#include <string_view>

namespace rbs::telemetry::detail {

/// Shortest deterministic rendering of a double (printf %g with enough
/// digits to round-trip the common cases; exports are compared verbatim by
/// the determinism tests, never re-parsed for bit equality). Non-finite
/// values render as "0" so exports stay valid JSON.
[[nodiscard]] std::string num(double v);

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// control characters).
void json_escape_into(std::string& out, std::string_view s);

/// RFC-4180: quote any cell containing a comma, quote, or newline; double
/// embedded quotes.
[[nodiscard]] std::string csv_cell(const std::string& cell);

}  // namespace rbs::telemetry::detail
