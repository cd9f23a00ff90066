// rsse_client: data-owner CLI for rsse_serverd.
//
// Builds a Constant-scheme index over a synthetic dataset, ships it to the
// server (ExportServerSetup, one SetupStore frame per store), then issues
// one *batched* round trip of range queries — the server dedupes covering
// GGM nodes shared across the ranges and expands each subtree once.
//
//   rsse_serverd --port=7370 &
//   rsse_client --port=7370 --n=20000 --domain=65536
//               --ranges=100:900,500:1500,500:1500 --verify=1
//
// Flags (an argument that is not --help or one of these flags as
// --name=value exits 2, as do a numeric value, range bounds included, that
// does not parse in full and fit its field, a range without
// lo <= hi < domain, and a --technique other than brc or urc):
//   --host=<ipv4>        server address          (default 127.0.0.1)
//   --port=<port>        server port             (default 7370)
//   --n=<tuples>         synthetic dataset size  (default 10000)
//   --domain=<size>      attribute domain        (default 65536)
//   --seed=<rng seed>    dataset/scheme seed     (default 1)
//   --technique=brc|urc  covering technique      (default brc)
//   --shards=<n>         owner-side build shards (default RSSE_SHARDS)
//   --ranges=lo:hi,...   batch of ranges         (default 8 overlapping)
//   --verify=0|1         compare against local in-process Query

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "rsse/constant.h"
#include "server/cli_flags.h"
#include "server/client.h"
#include "server/remote_backend.h"

namespace {

using rsse::server::ChoiceFlag;
using rsse::server::FlagValue;
using rsse::server::NumericFlag;
using rsse::server::ParseNumber;

/// Parses "lo:hi,lo:hi,..."; a malformed item, lo > hi or a bound past
/// the domain exits 2.
std::vector<rsse::Range> ParseRanges(const char* spec, uint64_t domain) {
  std::vector<rsse::Range> ranges;
  const std::string_view s = spec;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string_view::npos) comma = s.size();
    const std::string_view item = s.substr(pos, comma - pos);
    const size_t colon = item.find(':');
    std::optional<uint64_t> lo;
    std::optional<uint64_t> hi;
    if (colon != std::string_view::npos) {
      lo = ParseNumber<uint64_t>(item.substr(0, colon));
      hi = ParseNumber<uint64_t>(item.substr(colon + 1));
    }
    if (!lo || !hi || *lo > *hi || *hi >= domain) {
      std::fprintf(stderr,
                   "rsse_client: bad range '%.*s' (want lo:hi with "
                   "lo <= hi < domain)\n",
                   static_cast<int>(item.size()), item.data());
      std::exit(2);
    }
    ranges.push_back(rsse::Range{*lo, *hi});
    pos = comma + 1;
  }
  return ranges;
}

}  // namespace

int main(int argc, char** argv) {
  rsse::server::RejectUnknownFlags(argc, argv,
                                   {"host", "port", "n", "domain", "seed",
                                    "technique", "shards", "ranges", "verify"});
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "rsse_client: batched range queries against rsse_serverd\n"
          "  --host=<ipv4> --port=<port> --n=<tuples> --domain=<size>\n"
          "  --seed=<n> --technique=brc|urc --shards=<n>\n"
          "  --ranges=lo:hi,lo:hi,... --verify=0|1\n"
          "Any other argument, a numeric value that does not parse in full "
          "and fit its field, a range without lo <= hi < domain and any "
          "other technique exit 2.\n");
      return 0;
    }
  }
  const std::string host = FlagValue(argc, argv, "host")
                               ? FlagValue(argc, argv, "host")
                               : "127.0.0.1";
  uint16_t port = 7370;
  uint64_t n = 10000;
  uint64_t domain = 65536;
  uint64_t seed = 1;
  int shards = 0;
  int verify = 0;
  NumericFlag(argc, argv, "port", port);
  NumericFlag(argc, argv, "n", n);
  NumericFlag(argc, argv, "domain", domain);
  NumericFlag(argc, argv, "seed", seed);
  NumericFlag(argc, argv, "shards", shards);
  NumericFlag(argc, argv, "verify", verify);
  const char* technique = ChoiceFlag(argc, argv, "technique", {"brc", "urc"});
  const bool urc = technique != nullptr && std::strcmp(technique, "urc") == 0;

  std::vector<rsse::Range> ranges;
  if (const char* spec = FlagValue(argc, argv, "ranges")) {
    ranges = ParseRanges(spec, domain);
  } else if (domain > 0) {
    // Default demo batch: 8 deliberately overlapping ranges so the
    // server-side dedupe has shared covering nodes to exploit.
    const uint64_t w = std::max<uint64_t>(domain / 8, 1);
    for (uint64_t i = 0; i < 8; ++i) {
      // Pairs share an aligned range.
      const uint64_t lo = std::min((i / 2) * w, domain - 1);
      ranges.push_back(rsse::Range{lo, std::min(lo + w - 1, domain - 1)});
    }
  }

  // Owner side: build the encrypted index and delegate per-range tokens.
  rsse::Rng rng(seed);
  rsse::Dataset data = rsse::GenerateGowallaLike(n, domain, rng);
  rsse::ConstantScheme scheme(
      urc ? rsse::CoverTechnique::kUrc : rsse::CoverTechnique::kBrc, seed);
  scheme.SetShards(shards);
  rsse::Status built = scheme.Build(data);
  if (!built.ok()) {
    std::fprintf(stderr, "rsse_client: build failed: %s\n",
                 built.ToString().c_str());
    return 1;
  }

  rsse::server::EmmClient client;
  rsse::Status conn = client.Connect(host, port);
  if (!conn.ok()) {
    std::fprintf(stderr, "rsse_client: %s\n", conn.ToString().c_str());
    return 1;
  }

  rsse::Result<rsse::ServerSetup> setup = scheme.ExportServerSetup();
  rsse::Status installed =
      setup.ok() ? rsse::server::InstallServerSetup(client, *setup)
                 : setup.status();
  if (!installed.ok()) {
    std::fprintf(stderr, "rsse_client: setup failed: %s\n",
                 installed.ToString().c_str());
    return 1;
  }
  std::printf("setup: %zu store(s), %zu entries across %d shards\n",
              setup->stores.size(), scheme.index().EntryCount(),
              scheme.index().shard_count());

  std::vector<rsse::server::EmmClient::BatchQuery> batch;
  for (size_t i = 0; i < ranges.size(); ++i) {
    rsse::server::EmmClient::BatchQuery q;
    q.query_id = static_cast<uint32_t>(i);
    q.tokens = scheme.Delegate(ranges[i]);
    batch.push_back(std::move(q));
  }
  auto outcome = client.SearchBatch(batch);
  if (!outcome.ok()) {
    std::fprintf(stderr, "rsse_client: batch failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  bool all_match = true;
  for (size_t i = 0; i < ranges.size(); ++i) {
    const std::vector<uint64_t>& ids =
        outcome->ids[static_cast<uint32_t>(i)];
    std::printf("query %zu [%" PRIu64 ", %" PRIu64 "]: %zu ids\n", i,
                ranges[i].lo, ranges[i].hi, ids.size());
    if (verify) {
      auto local = scheme.Query(ranges[i]);
      if (!local.ok()) {
        std::fprintf(stderr, "  local query failed: %s\n",
                     local.status().ToString().c_str());
        all_match = false;
        continue;
      }
      std::vector<uint64_t> remote = ids;
      std::vector<uint64_t> expected = local->ids;
      std::sort(remote.begin(), remote.end());
      std::sort(expected.begin(), expected.end());
      if (remote != expected) {
        std::fprintf(stderr, "  MISMATCH vs local search (%zu vs %zu ids)\n",
                     remote.size(), expected.size());
        all_match = false;
      }
    }
  }
  std::printf("batch: %" PRIu64 " tokens sent, %" PRIu64
              " unique subtrees expanded (%" PRIu64 " deduped), %" PRIu64
              " leaves searched, %.2f ms server time\n",
              outcome->done.tokens_received,
              outcome->done.unique_nodes_expanded,
              outcome->done.tokens_received -
                  outcome->done.unique_nodes_expanded,
              outcome->done.leaves_searched,
              static_cast<double>(outcome->done.search_nanos) / 1e6);
  if (verify) {
    std::printf("verify: %s\n", all_match ? "all queries match local search"
                                          : "MISMATCHES FOUND");
  }
  auto stats = client.Stats();
  if (stats.ok()) {
    std::printf("server: %" PRIu64 " entries, %" PRIu64
                " mapped byte(s), %" PRIu64
                " heap byte(s), snapshot v%u\n",
                stats->entries, stats->mapped_bytes, stats->heap_bytes,
                stats->snapshot_format);
  }
  return all_match ? 0 : 1;
}
