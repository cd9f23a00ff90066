#include "common/env.h"

#include <cstdlib>

namespace rsse {

int ResolveThreadCount(int requested, const char* env_var) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv(env_var); env != nullptr) {
    int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 1;
}

}  // namespace rsse
