#include "common/env.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace rsse {

int ResolveThreadCount(int requested, const char* env_var) {
  if (requested > 0) return requested;
  const char* env = std::getenv(env_var);
  if (env == nullptr) return 1;
  // Parse in full, as the command-line flags do: "abc", "4x", "-2" or an
  // overflowing value is a configuration error, not a silent default.
  int parsed = 0;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, parsed);
  if (ec != std::errc() || ptr != end || parsed < 0) {
    std::fprintf(stderr, "%s=%s: expected a whole number in [0, %d]\n",
                 env_var, env, std::numeric_limits<int>::max());
    std::exit(2);
  }
  return parsed > 0 ? parsed : 1;
}

}  // namespace rsse
