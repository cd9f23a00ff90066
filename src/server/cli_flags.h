#ifndef RSSE_SERVER_CLI_FLAGS_H_
#define RSSE_SERVER_CLI_FLAGS_H_

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace rsse::server {

/// argv[0] without its directory, as the mains prefix their messages.
inline const char* ProgramName(const char* argv0) {
  const char* slash = std::strrchr(argv0, '/');
  return slash != nullptr ? slash + 1 : argv0;
}

/// Exits 2 on any argument that is neither `--help` nor `--<name>=<value>`
/// for a name in `known`, printing the argument first: a misspelt flag
/// must not fall back to its default unnoticed (`--data_dir=` for
/// `--data-dir=` would serve from memory alone). Both mains call this
/// first.
inline void RejectUnknownFlags(int argc, char** argv,
                               std::initializer_list<std::string_view> known) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") continue;
    const size_t eq = arg.find('=');
    if (arg.starts_with("--") && eq != std::string_view::npos &&
        std::find(known.begin(), known.end(), arg.substr(2, eq - 2)) !=
            known.end()) {
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s' (see --help)\n",
                 ProgramName(argv[0]), argv[i]);
    std::exit(2);
  }
}

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
  std::fprintf(stderr, "%s: --%s=%s: expected an integer in [%lld, %llu]\n",
               ProgramName(argv[0]), key, value,
               static_cast<long long>(std::numeric_limits<T>::min()),
               static_cast<unsigned long long>(std::numeric_limits<T>::max()));
  std::exit(2);
}

/// The value of `--key=<v>` (nullptr when absent), which must be one of
/// `choices`: any other value prints them and exits 2.
inline const char* ChoiceFlag(
    int argc, char** argv, const char* key,
    std::initializer_list<std::string_view> choices) {
  const char* value = FlagValue(argc, argv, key);
  if (value == nullptr ||
      std::find(choices.begin(), choices.end(), value) != choices.end()) {
    return value;
  }
  std::string expected;
  for (std::string_view choice : choices) (expected += ' ') += choice;
  std::fprintf(stderr, "%s: --%s=%s: expected one of%s\n",
               ProgramName(argv[0]), key, value, expected.c_str());
  std::exit(2);
}

}  // namespace rsse::server

#endif  // RSSE_SERVER_CLI_FLAGS_H_
