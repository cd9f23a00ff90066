// Cold-start time-to-first-query of rsse_serverd's durable stores: the
// owner ships a Constant-BRC index (ExportServerSetup + InstallServerSetup)
// into a --data-dir, the server stops, and a successor is timed from
// construction through Listen() to its first answered query — once
// booting off a v1 snapshot (heap deserialize, cold_start_heap) and once
// off a v2 snapshot (mmap, cold_start_mmap). Gate: both substrates must
// return identical id sets, else the driver exits non-zero.
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
    "bench_server_load: cold-start time-to-first-query, heap vs mmap.\n"
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

  // The mmap row is the headline number for the v2 format: Listen() maps
  // the snapshot instead of deserializing it, so TTFQ is dominated by the
  // query itself.
  const uint64_t cold_hi = std::min<uint64_t>(domain, 4096) - 1;
  const std::vector<GgmDprf::Token> cold_tokens =
      scheme.Delegate(Range{0, cold_hi});
  std::vector<uint64_t> ids_by_mode[2];
  double ttfq_ms[2] = {-1.0, -1.0};
  bool cold_ok = true;
  for (int mode = 0; mode < 2; ++mode) {  // 0 = heap, 1 = mmap
    char dir_template[] = "/tmp/rsse_bench_cold_XXXXXX";
    if (mkdtemp(dir_template) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    const std::string data_dir = dir_template;
    ServerOptions durable;
    durable.search_workers = workers;
    durable.data_dir = data_dir;
    durable.mmap_stores = mode;
    {
      EmmServer writer(durable);
      if (!writer.Listen().ok()) {
        std::fprintf(stderr, "cold-start writer listen failed\n");
        return 1;
      }
      std::thread writer_thread([&writer] { (void)writer.Serve(); });
      EmmClient owner;
      const bool ok =
          owner.Connect("127.0.0.1", writer.port()).ok() &&
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
          ttfq_ms[mode] = std::chrono::duration<double, std::milli>(
                              Clock::now() - cold_begin)
                              .count();
          ids_by_mode[mode] = outcome->ids[0];
          std::sort(ids_by_mode[mode].begin(), ids_by_mode[mode].end());
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
    cold_ok = cold_ok && ok;
  }
  const bool identical = cold_ok && ids_by_mode[0] == ids_by_mode[1];
  for (int mode = 0; mode < 2; ++mode) {
    char ids_buf[24];
    char ms_buf[24];
    std::snprintf(ids_buf, sizeof(ids_buf), "%zu",
                  ids_by_mode[mode].size());
    std::snprintf(ms_buf, sizeof(ms_buf), "%.3f", ttfq_ms[mode]);
    PrintRow({mode == 0 ? "cold_start_heap" : "cold_start_mmap", "1",
              ids_buf, "-", ms_buf, "-", identical ? "0" : "1", "-"});
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: cold-start substrates disagree (heap %zu ids, "
                 "mmap %zu ids)\n",
                 ids_by_mode[0].size(), ids_by_mode[1].size());
    return 1;
  }

  return 0;
}

}  // namespace
}  // namespace rsse::bench

int main(int argc, char** argv) { return rsse::bench::Run(argc, argv); }
