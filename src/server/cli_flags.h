#ifndef RSSE_SERVER_CLI_FLAGS_H_
#define RSSE_SERVER_CLI_FLAGS_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace rsse::server {

/// Minimal --key=value lookup shared by the rsse_serverd / rsse_client
/// mains (they deliberately link no bench utilities). Returns the value of
/// the last matching flag, or nullptr when absent.
inline const char* FlagValue(int argc, char** argv, const char* key) {
  const std::string prefix = std::string("--") + key + "=";
  const char* value = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      value = argv[i] + prefix.size();
    }
  }
  return value;
}

/// Parses all of `text` as a T. std::from_chars takes no whitespace, no
/// '+' and (for unsigned T) no '-', and reports values outside T's range,
/// so "abc", "12x", "" and "70001" for a uint16_t all give nullopt.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// Overwrites `field` with numeric flag `--key=<n>` when it is present.
/// A value that does not parse in full as the field's type is a usage
/// error: the main prints it with the accepted range and exits 2.
template <typename T>
void NumericFlag(int argc, char** argv, const char* key, T& field) {
  const char* value = FlagValue(argc, argv, key);
  if (value == nullptr) return;
  if (const std::optional<T> parsed = ParseNumber<T>(value)) {
    field = *parsed;
    return;
  }
  const char* slash = std::strrchr(argv[0], '/');
  std::fprintf(stderr, "%s: --%s=%s: expected an integer in [%lld, %llu]\n",
               slash != nullptr ? slash + 1 : argv[0], key, value,
               static_cast<long long>(std::numeric_limits<T>::min()),
               static_cast<unsigned long long>(std::numeric_limits<T>::max()));
  std::exit(2);
}

}  // namespace rsse::server

#endif  // RSSE_SERVER_CLI_FLAGS_H_
