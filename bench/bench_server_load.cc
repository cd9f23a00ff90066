// Cold-start time-to-first-query of rsse_serverd's durable stores: the
// owner ships a Constant-BRC index (ExportServerSetup + InstallServerSetup)
// into a --data-dir, the server stops, and a successor is timed from
// construction through Listen() (map the snapshot, verify its checksums)
// to its first answered query (cold_start_mmap). Gate: the successor's ids
// must equal the owner's local Query, else the program exits non-zero.
//
// Steady-state serving (knee qps at a p99 limit, per-layer traces) is
// measured by servebench/; backpressure by ServerLoopbackTest's
// SlowReaderIsBackpressuredNotBuffered; restart recovery by the
// persist, restart-conformance and serverd-process suites.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "data/generators.h"
#include "rsse/constant.h"
#include "server/client.h"
#include "server/remote_backend.h"
#include "server/server.h"

namespace rsse::bench {
namespace {

using server::EmmClient;
using server::EmmServer;
using server::ServerOptions;
using Clock = std::chrono::steady_clock;

constexpr char kUsage[] =
    "bench_server_load: cold-start time-to-first-query off a mapped "
    "snapshot.\n"
    "  --n=<entries>              (default 60000)\n"
    "  --domain=<size>            (default 65536)\n"
    "  --workers=<pool size>      (default 4)\n"
    "  --smoke=1                  (~1 s workload for CI smoke runs)\n"
    "  --json=1                   (machine-readable JSON-lines rows)\n";

int Run(int argc, char** argv) {
  Flags flags(argc, argv, kUsage);
  const bool smoke = flags.Smoke();
  const uint64_t n = flags.GetUint("n", smoke ? 8000 : 60000);
  const uint64_t domain = flags.GetUint("domain", uint64_t{1} << 16);
  const int workers = static_cast<int>(flags.GetUint("workers", 4));

  // Owner side: skew-free dataset under Constant-BRC, sharded index.
  Rng rng(17);
  Dataset data = GenerateUniform(n, domain, rng);
  ConstantScheme scheme(CoverTechnique::kBrc, /*rng_seed=*/5);
  scheme.SetShards(4);
  if (!scheme.Build(data).ok()) {
    std::fprintf(stderr, "index build failed\n");
    return 1;
  }
  Result<ServerSetup> setup = scheme.ExportServerSetup();
  if (!setup.ok()) {
    std::fprintf(stderr, "export failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }

  // The column set is the one this driver has always printed, so rows
  // stay aligned with earlier snapshots in compare_bench.
  PrintHeaderRow({"scenario", "clients", "queries", "qps", "p50_ms",
                  "p99_ms", "errors", "peak_out_bytes"});

  // Listen() maps the snapshot instead of deserializing it, so TTFQ is
  // the checksum pass plus the query itself.
  const Range cold_range{0, std::min<uint64_t>(domain, 4096) - 1};
  Result<QueryResult> local = scheme.Query(cold_range);
  if (!local.ok()) {
    std::fprintf(stderr, "local query failed: %s\n",
                 local.status().ToString().c_str());
    return 1;
  }
  std::vector<uint64_t> expected = local->ids;
  std::sort(expected.begin(), expected.end());
  const std::vector<GgmDprf::Token> cold_tokens = scheme.Delegate(cold_range);

  char dir_template[] = "/tmp/rsse_bench_cold_XXXXXX";
  if (mkdtemp(dir_template) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string data_dir = dir_template;
  ServerOptions durable;
  durable.search_workers = workers;
  durable.data_dir = data_dir;
  {
    EmmServer writer(durable);
    if (!writer.Listen().ok()) {
      std::fprintf(stderr, "cold-start writer listen failed\n");
      return 1;
    }
    std::thread writer_thread([&writer] { (void)writer.Serve(); });
    EmmClient owner;
    const bool ok = owner.Connect("127.0.0.1", writer.port()).ok() &&
                    server::InstallServerSetup(owner, *setup).ok();
    writer.Shutdown();
    writer_thread.join();
    if (!ok) {
      std::fprintf(stderr, "cold-start setup failed\n");
      return 1;
    }
  }
  const Clock::time_point cold_begin = Clock::now();
  EmmServer cold(durable);
  bool ok = cold.Listen().ok();
  std::thread cold_thread;
  if (ok) cold_thread = std::thread([&cold] { (void)cold.Serve(); });
  double ttfq_ms = -1.0;
  std::vector<uint64_t> served;
  if (ok) {
    EmmClient probe;
    ok = probe.Connect("127.0.0.1", cold.port()).ok();
    if (ok) {
      EmmClient::BatchQuery query;
      query.query_id = 0;
      query.tokens = cold_tokens;
      auto outcome = probe.SearchBatch({query});
      ok = outcome.ok();
      if (ok) {
        ttfq_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            cold_begin)
                      .count();
        served = outcome->ids[0];
        std::sort(served.begin(), served.end());
      }
    }
  }
  cold.Shutdown();
  if (cold_thread.joinable()) cold_thread.join();
  if (DIR* d = opendir(data_dir.c_str())) {
    while (dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") {
        unlink((data_dir + "/" + name).c_str());
      }
    }
    closedir(d);
  }
  rmdir(data_dir.c_str());

  const bool identical = ok && served == expected;
  char ids_buf[24];
  char ms_buf[24];
  std::snprintf(ids_buf, sizeof(ids_buf), "%zu", served.size());
  std::snprintf(ms_buf, sizeof(ms_buf), "%.3f", ttfq_ms);
  PrintRow({"cold_start_mmap", "1", ids_buf, "-", ms_buf, "-",
            identical ? "0" : "1", "-"});
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: cold-start successor disagrees with local Query "
                 "(%zu served ids, %zu local)\n",
                 served.size(), expected.size());
    return 1;
  }

  return 0;
}

}  // namespace
}  // namespace rsse::bench

int main(int argc, char** argv) { return rsse::bench::Run(argc, argv); }
