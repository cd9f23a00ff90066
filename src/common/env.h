#ifndef RSSE_COMMON_ENV_H_
#define RSSE_COMMON_ENV_H_

namespace rsse {

/// Resolves a worker-thread count: a positive `requested` wins, otherwise
/// a positive integer in the `env_var` environment variable, otherwise 1
/// (single-threaded, paper-faithful timing). Shared by index construction
/// (`RSSE_BUILD_THREADS`), multi-token search (`RSSE_SEARCH_THREADS`) and
/// the shard count (`RSSE_SHARDS`). Unset or "0" means the default; any
/// other value that is not a whole non-negative int prints the variable
/// and its value to stderr and exits 2, as a malformed flag does.
int ResolveThreadCount(int requested, const char* env_var);

}  // namespace rsse

#endif  // RSSE_COMMON_ENV_H_
