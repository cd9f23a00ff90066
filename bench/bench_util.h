#ifndef RSSE_BENCH_BENCH_UTIL_H_
#define RSSE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "rsse/scheme.h"

namespace rsse::bench {

/// Minimal --key=value flag parser shared by the figure drivers. Unknown
/// flags abort with a usage message; every driver documents its flags via
/// `usage`.
class Flags {
 public:
  Flags(int argc, char** argv, const std::string& usage);

  /// Numeric getters. A value that does not parse in full (`--seed=abc`,
  /// `--seed=-5`, `--seed=12x`, out of range, or a non-finite double)
  /// prints the usage and exits with status 2.
  uint64_t GetUint(const std::string& key, uint64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;

  /// Shared `--smoke` / `--smoke=1` convention: drivers shrink their
  /// default workload to a ~1-second run. Used by ctest's `bench_smoke`
  /// label so bench binaries are exercised on every test run. Explicit
  /// flags still win. (Bare flags parse as "true", so this cannot go
  /// through GetUint.)
  bool Smoke() const {
    const std::string v = GetString("smoke", "0");
    return v != "0" && v != "false";
  }

 private:
  [[noreturn]] void RejectValue(const std::string& key,
                                const char* expected) const;

  std::string usage_;
  std::map<std::string, std::string> values_;
};

/// Named dataset used throughout the evaluation section.
/// "gowalla": near-uniform, ~95% distinct (Fig 5/6a/7a);
/// "usps":    heavily skewed, ~5% distinct (Table 2, Fig 6b/7b).
Dataset MakeEvalDataset(const std::string& name, uint64_t n,
                        uint64_t domain_size, uint64_t seed);

/// Default domain sizes mirroring the paper (scaled): Gowalla timestamps
/// over ~103M values, USPS salaries over 276841 values.
uint64_t DefaultDomainFor(const std::string& dataset);

/// Builds a scheme (including the PB baseline) behind the uniform facade.
std::unique_ptr<RangeScheme> MakeAnyScheme(SchemeId id, uint64_t seed);

/// The scheme set of the paper's Section 8 experiments (Quadratic excluded
/// for its prohibitive storage, exactly as in the paper).
std::vector<SchemeId> EvalSchemes();

/// Prints a row of fixed-width columns; with RSSE_BENCH_CSV=1 in the
/// environment, emits comma-separated values instead (for plotting), and
/// in JSON mode (the shared `--json` flag) one JSON object per data row,
/// keyed by the most recent header row (JSON-lines, for tracked perf
/// trajectories).
void PrintRow(const std::vector<std::string>& cells);

/// Declares `cells` as the header of the rows that follow. In table/CSV
/// mode it prints like a normal row; in JSON mode it is recorded as the
/// key set and not printed.
void PrintHeaderRow(const std::vector<std::string>& cells);

/// Switches PrintRow/PrintHeaderRow to JSON-lines output. Flags enables
/// this automatically when `--json` is passed.
void SetJsonOutput(bool enabled);

/// Formats bytes as MB with two decimals.
std::string FormatMb(size_t bytes);

}  // namespace rsse::bench

#endif  // RSSE_BENCH_BENCH_UTIL_H_
