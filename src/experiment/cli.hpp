// Minimal command-line handling shared by the bench binaries.
//
// Every bench supports:
//   --full       paper-scale parameters (slower, closer to published setup)
//   --csv DIR    also write machine-readable CSV into DIR
//   --seed N     override the base RNG seed
//   --threads N  worker threads for parallel sweeps (0 = RBS_THREADS env
//                var, else hardware concurrency; results are bitwise
//                identical for any thread count)
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "experiment/sweep.hpp"

namespace rbs::experiment {

/// `text` as a T in [lo, hi], or nullopt. The whole string must parse: no
/// leading blanks, no trailing characters. For floating point the default
/// bounds also reject NaN and the infinities.
template <typename T>
std::optional<T> parse_number(std::string_view text, T lo = std::numeric_limits<T>::lowest(),
                              T hi = std::numeric_limits<T>::max()) {
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || !(v >= lo && v <= hi)) {
    return std::nullopt;
  }
  return v;
}

struct CliOptions {
  bool full{false};
  std::string csv_dir;  ///< empty = no CSV output
  std::uint64_t seed{1};
  int threads{0};  ///< sweep workers; 0 = default_sweep_threads()

  [[nodiscard]] bool want_csv() const noexcept { return !csv_dir.empty(); }
};

/// The value `text` of `flag` as a T in [lo, hi]; exits 2 naming the flag
/// when parse_number rejects it.
template <typename T>
T flag_value(const char* flag, const char* text, T lo = std::numeric_limits<T>::lowest(),
             T hi = std::numeric_limits<T>::max()) {
  const auto v = parse_number<T>(text, lo, hi);
  if (!v) {
    std::fprintf(stderr, "bad value for %s '%s'\n", flag, text);
    std::exit(2);
  }
  return *v;
}

/// Parses the common flags; exits 2 with a message on an unknown argument,
/// a value flag given last with no value, or a value that is not a number
/// in range.
inline CliOptions parse_cli(int argc, char** argv, const char* description) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // The argument after a value flag; a value flag given last has none.
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--full") == 0) {
      opts.full = true;
    } else if (std::strcmp(arg, "--csv") == 0) {
      opts.csv_dir = value();
    } else if (std::strcmp(arg, "--seed") == 0) {
      opts.seed = flag_value<std::uint64_t>(arg, value());
    } else if (std::strcmp(arg, "--threads") == 0) {
      opts.threads = flag_value(arg, value(), 0, kMaxSweepThreads);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf("%s\n\nusage: %s [--full] [--csv DIR] [--seed N] [--threads N]\n", description,
                  argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", arg);
      std::exit(2);
    }
  }
  return opts;
}

}  // namespace rbs::experiment
