// Reproduces Figure 7: server-side search time as a function of the query
// range size (% of the domain), for every scheme plus the pure-SSE floor
// (the unavoidable cost of retrieving the r results with the underlying
// encrypted multimap — a 1-shard ShardedEmm, the paper's flat Π_bas
// dictionary — reported from its measured per-result throughput).
//
// Paper shapes to verify:
//  * Logarithmic-BRC/URC coincide with the SSE floor;
//  * Constant slightly above (GGM expansion of O(R) DPRFs);
//  * the SRC schemes above those (false positives); SRC-i loses to SRC on
//    near-uniform data but wins under skew (Fig 7b crossover);
//  * PB comparable on uniform data, worse on skew.

#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "crypto/random.h"
#include "data/workload.h"
#include "shard/sharded_emm.h"
#include "sse/encrypted_multimap.h"

namespace rsse::bench {
namespace {

constexpr char kUsage[] =
    "bench_search_time: Figure 7 — search time vs range size.\n"
    "  --dataset=gowalla|usps   (default gowalla)\n"
    "  --n=<dataset size>       (default 20000)\n"
    "  --queries=<per point>    (default 5)\n"
    "  --domain=<domain size>   (default 2^18 for gowalla, 276841 for usps;\n"
    "    the Constant schemes expand O(R) GGM leaves, so search cost scales\n"
    "    with the domain — raise --domain to reproduce Fig 7a's wider gap)\n"
    "  --smoke=1                (~1 s workload for CI smoke runs)\n"
    "  --json=1                 (machine-readable JSON-lines rows)\n";

/// Measured per-result retrieval cost of the underlying SSE scheme, in
/// nanoseconds: the "SSE (Cash et al.)" curve of Fig 7. The keyword keys
/// are derived outside the timer, one warm-up search runs first, and the
/// median of five timed searches is reported, so one cold or preempted
/// run does not move the floor.
double MeasureSsePerResultNanos() {
  sse::PlainMultimap postings;
  const uint64_t list_len = 20000;
  for (uint64_t i = 0; i < list_len; ++i) {
    postings[ToBytes("floor")].push_back(sse::EncodeIdPayload(i));
  }
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  shard::ShardOptions flat;
  flat.shards = 1;
  flat.threads = 1;
  auto emm = shard::ShardedEmm::Build(postings, deriver, flat);
  const sse::KeywordKeys keys = deriver.Derive(ToBytes("floor"));
  (void)emm->Search(keys);  // warm-up
  StatsAccumulator per_result;
  for (int run = 0; run < 5; ++run) {
    WallTimer timer;
    const size_t got = emm->Search(keys).size();
    per_result.Add(static_cast<double>(timer.ElapsedNanos()) /
                   static_cast<double>(got == 0 ? 1 : got));
  }
  return per_result.Percentile(50);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv, kUsage);
  const bool smoke = flags.Smoke();
  const std::string dataset_name = flags.GetString("dataset", "gowalla");
  const uint64_t n = flags.GetUint("n", smoke ? 1000 : 20000);
  const size_t queries = flags.GetUint("queries", smoke ? 2 : 5);
  const uint64_t default_domain =
      dataset_name == "usps" ? DefaultDomainFor(dataset_name) : uint64_t{1}
                                                                    << 18;
  const uint64_t domain =
      flags.GetUint("domain", smoke ? uint64_t{1} << 13 : default_domain);

  Dataset data = MakeEvalDataset(dataset_name, n, domain, /*seed=*/3);
  std::vector<std::pair<SchemeId, std::unique_ptr<RangeScheme>>> schemes;
  for (SchemeId id : EvalSchemes()) {
    auto scheme = MakeAnyScheme(id, 7);
    if (!scheme->Build(data).ok()) {
      std::fprintf(stderr, "build failed for %s\n", SchemeName(id));
      return 1;
    }
    schemes.emplace_back(id, std::move(scheme));
  }
  const double sse_per_result = MeasureSsePerResultNanos();

  std::printf("== Search time (%s, n=%llu) — Fig 7 ==\n", dataset_name.c_str(),
              static_cast<unsigned long long>(n));
  std::vector<std::string> header = {"range (% domain)"};
  for (const auto& [id, scheme] : schemes) header.push_back(SchemeName(id));
  header.push_back("SSE floor");
  PrintHeaderRow(header);

  Rng qrng(13);
  for (int pct = 10; pct <= 100; pct += 10) {
    std::vector<Range> workload =
        RandomRangesOfFraction(data.domain(), pct / 100.0, queries, qrng);
    std::vector<std::string> row;
    char pct_buf[16];
    std::snprintf(pct_buf, sizeof(pct_buf), "%d", pct);
    row.push_back(pct_buf);
    double mean_truth = 0;
    for (const auto& [id, scheme] : schemes) {
      StatsAccumulator acc;
      for (const Range& r : workload) {
        Result<QueryResult> q = scheme->Query(r);
        if (!q.ok()) continue;
        acc.Add(static_cast<double>(q->search_nanos) / 1e6);
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f ms", acc.mean());
      row.push_back(buf);
    }
    for (const Range& r : workload) {
      mean_truth += static_cast<double>(data.IdsInRange(r).size());
    }
    mean_truth /= static_cast<double>(workload.size());
    char floor_buf[32];
    std::snprintf(floor_buf, sizeof(floor_buf), "%.2f ms",
                  mean_truth * sse_per_result / 1e6);
    row.push_back(floor_buf);
    PrintRow(row);
  }
  return 0;
}

}  // namespace
}  // namespace rsse::bench

int main(int argc, char** argv) { return rsse::bench::Run(argc, argv); }
