// Strict option values for the command-line tools (rse_campaign, rse_run,
// rse_lint): a missing value, a number that is not the whole token, or one
// outside its target type's range is a usage error.  `usage` prints the
// tool's usage text and returns its exit code (2).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <type_traits>
#include <utility>

namespace rse::cli {

/// The value after option argv[*i], advancing *i.
inline const char* value_or_exit(int argc, char** argv, int* i, int (*usage)()) {
  if (*i + 1 >= argc) {
    std::cerr << "missing value for " << argv[*i] << "\n";
    std::exit(usage());
  }
  return argv[++*i];
}

/// All of `text` as a decimal T (no sign for unsigned T, finite for floating T).
template <typename T>
T number_or_exit(std::string_view flag, std::string_view text, int (*usage)()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::cerr << "bad value for " << flag << ": '" << text << "'\n";
    std::exit(usage());
  }
  return value;
}

/// "A<sep>B" as two numbers.
template <typename T>
std::pair<T, T> pair_or_exit(std::string_view flag, std::string_view text, char sep,
                             int (*usage)()) {
  const std::size_t at = text.find(sep);
  if (at == std::string_view::npos) {
    std::cerr << flag << " expects A" << sep << "B\n";
    std::exit(usage());
  }
  return {number_or_exit<T>(flag, text.substr(0, at), usage),
          number_or_exit<T>(flag, text.substr(at + 1), usage)};
}

}  // namespace rse::cli
