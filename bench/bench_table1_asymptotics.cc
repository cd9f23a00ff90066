// Empirically validates Table 1: for every scheme, measures how storage
// scales with n, how query size and search time scale with R, and whether
// false positives occur — and prints the measured growth next to the
// paper's asymptotic claim. Every query is also checked against the
// table, and any violation exits 1: a failed Build or Query, an id whose
// value lies in the range but is missing, an id outside the range from a
// scheme that claims no false positives, or a Quadratic or
// Logarithmic-SRC query of more than one token.
//
// Quadratic is included here (tiny domain), unlike the Section 8
// experiments, because Table 1 covers it.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "common/stats.h"
#include "data/workload.h"
#include "rsse/factory.h"

namespace rsse::bench {
namespace {

constexpr char kUsage[] =
    "bench_table1_asymptotics: Table 1 — measured cost scaling per scheme.\n"
    "  --n=<base dataset size> (default 4000)\n"
    "  --smoke=1               (~1 s workload for CI smoke runs)\n"
    "  --json=1                (machine-readable JSON-lines rows)\n";

struct SchemeRow {
  SchemeId id;
  const char* storage_claim;
  const char* query_claim;
  const char* search_claim;
  const char* fp_claim;
};

const SchemeRow kRows[] = {
    {SchemeId::kQuadratic, "O(n m^2)", "O(1)", "O(r)", "none"},
    {SchemeId::kConstantBrc, "O(n)", "O(log R)", "O(R + r)", "none"},
    {SchemeId::kConstantUrc, "O(n)", "O(log R)", "O(R + r)", "none"},
    {SchemeId::kLogarithmicBrc, "O(n log m)", "O(log R)", "O(log R + r)",
     "none"},
    {SchemeId::kLogarithmicUrc, "O(n log m)", "O(log R)", "O(log R + r)",
     "none"},
    {SchemeId::kLogarithmicSrc, "O(n log m)", "O(1)", "O(n)", "O(n)"},
    {SchemeId::kLogarithmicSrcI, "O(n log m)", "O(1)", "O(R + r)", "O(R + r)"},
    {SchemeId::kPb, "O(n log n log m)", "O(log R)", "Om(log n log R + r)",
     "O(r)"},
};

/// Prints a Table 1 violation; the run then exits 1.
void Violation(bool& ok, const SchemeRow& row, const Range& r,
               const std::string& what) {
  std::fprintf(stderr, "FAIL %s [%llu, %llu]: %s\n", SchemeName(row.id),
               static_cast<unsigned long long>(r.lo),
               static_cast<unsigned long long>(r.hi), what.c_str());
  ok = false;
}

/// Runs `r` through `scheme`'s in-process protocol and checks the answer
/// against Table 1; returns the false positives (0 when the query fails).
size_t CheckedQuery(bool& ok, const SchemeRow& row, RangeScheme& scheme,
                    const Dataset& data, const Range& r, double* tokens) {
  Result<QueryResult> q = scheme.Query(r);
  if (!q.ok()) {
    Violation(ok, row, r, "query failed: " + q.status().ToString());
    return 0;
  }
  std::vector<uint64_t> got = q->ids;
  std::sort(got.begin(), got.end());
  for (uint64_t id : data.IdsInRange(r)) {
    if (!std::binary_search(got.begin(), got.end(), id)) {
      Violation(ok, row, r, "missed id " + std::to_string(id));
      break;
    }
  }
  const size_t fp = q->ids.size() - FilterIdsToRange(data, q->ids, r).size();
  if (fp > 0 && std::strcmp(row.fp_claim, "none") == 0) {
    Violation(ok, row, r,
              std::to_string(fp) + " false positive(s), claim is none");
  }
  if ((row.id == SchemeId::kQuadratic ||
       row.id == SchemeId::kLogarithmicSrc) &&
      q->token_count != 1) {
    Violation(ok, row, r,
              std::to_string(q->token_count) + " tokens, claim is one");
  }
  if (tokens != nullptr) *tokens = static_cast<double>(q->token_count);
  return fp;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv, kUsage);
  const bool smoke = flags.Smoke();
  const uint64_t base_n = flags.GetUint("n", smoke ? 250 : 4000);
  const uint64_t domain = smoke ? 1 << 10 : 1 << 12;
  // Quadratic materializes O(m^2) keywords; measure it on a tiny domain.
  const uint64_t quad_domain = smoke ? 32 : 64;
  const uint64_t quad_n = smoke ? 100 : 500;

  std::printf("== Table 1: measured cost scaling ==\n");
  PrintHeaderRow({"scheme", "storage(2n)/storage(n)", "tokens R=16 -> R=256",
            "fp observed", "claims (storage|query|fp)"});

  bool ok = true;
  for (const SchemeRow& row : kRows) {
    const uint64_t m = row.id == SchemeId::kQuadratic ? quad_domain : domain;
    const uint64_t n = row.id == SchemeId::kQuadratic ? quad_n : base_n;
    Dataset small = MakeEvalDataset("uniform", n, m, 1);
    Dataset large = MakeEvalDataset("uniform", 2 * n, m, 2);
    // False positives on a mildly skewed dataset.
    Dataset skew = MakeEvalDataset("usps", n, m, 3);

    auto s1 = MakeAnyScheme(row.id, 7);
    auto s2 = MakeAnyScheme(row.id, 7);
    auto s3 = MakeAnyScheme(row.id, 7);
    if (!s1->Build(small).ok() || !s2->Build(large).ok() ||
        !s3->Build(skew).ok()) {
      std::fprintf(stderr, "FAIL %s: build failed\n", SchemeName(row.id));
      return 1;
    }
    double storage_ratio = static_cast<double>(s2->IndexSizeBytes()) /
                           static_cast<double>(s1->IndexSizeBytes());

    Rng qrng(5);
    auto mean_tokens = [&](uint64_t range_size) {
      StatsAccumulator acc;
      for (const Range& r :
           RandomRangesOfSize(Domain{m}, range_size, 20, qrng)) {
        double tokens = 0;
        CheckedQuery(ok, row, *s2, large, r, &tokens);
        acc.Add(tokens);
      }
      return acc.mean();
    };
    double tokens_small = mean_tokens(row.id == SchemeId::kQuadratic ? 4 : 16);
    double tokens_large = mean_tokens(row.id == SchemeId::kQuadratic ? 32 : 256);

    size_t fp = 0;
    for (const Range& r : RandomRangesOfSize(Domain{m}, m / 8, 20, qrng)) {
      fp += CheckedQuery(ok, row, *s3, skew, r, nullptr);
    }

    char ratio_buf[32];
    std::snprintf(ratio_buf, sizeof(ratio_buf), "%.2fx", storage_ratio);
    char tok_buf[48];
    std::snprintf(tok_buf, sizeof(tok_buf), "%.1f -> %.1f", tokens_small,
                  tokens_large);
    char fp_buf[32];
    std::snprintf(fp_buf, sizeof(fp_buf), "%zu", fp);
    char claims[96];
    std::snprintf(claims, sizeof(claims), "%s | %s | %s", row.storage_claim,
                  row.query_claim, row.fp_claim);
    PrintRow({SchemeName(row.id), ratio_buf, tok_buf, fp_buf, claims});
  }
  std::printf(
      "\nExpectations: storage ratio ~2x for all; token growth flat for "
      "Quadratic/SRC/SRC-i,\nlogarithmic for BRC/URC/PB; fp > 0 only for "
      "SRC, SRC-i and PB.\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rsse::bench

int main(int argc, char** argv) { return rsse::bench::Run(argc, argv); }
