// rsse_serverd: standalone encrypted-range-search server for the whole
// scheme family.
//
// Hosts the store blobs a scheme's ExportServerSetup ships (sharded
// encrypted dictionaries with optional Bloom pre-decryption gates, the PB
// baseline's filter tree — one SetupStore frame per slot, SRC-i's I1/I2
// included) and serves batched GGM-token and keyword-token searches over
// the length-prefixed binary protocol of server/wire.h.
//
//   rsse_serverd --port=7370 --threads=8
//   rsse_serverd --port=0              # ephemeral; the bound port is printed
//   rsse_serverd --data-dir=/var/lib/rsse  # crash-safe store persistence
//
// Flags (numeric values must parse in full and fit their field, else the
// daemon exits 2 before binding):
//   --bind=<ipv4>      listen address        (default 127.0.0.1)
//   --port=<port>      TCP port, 0=ephemeral (default 7370)
//   --shards=<n>       shards for Update-built stores (default RSSE_SHARDS)
//   --threads=<n>      batch-search workers  (default RSSE_SEARCH_THREADS)
//   --max-level=<l>    largest GGM subtree per token (default 26)
//   --max-keyword-tokens=<n>  largest keyword-token batch (default 65536)
//   --search-workers=<n>  persistent search-worker pool size
//                      (default: the --threads resolution)
//   --max-outbound-bytes=<n>  per-connection outbound high-water mark;
//                      a search job parks when its connection's unsent
//                      output would cross it, and resumes once the
//                      socket drains (0 = unbounded; default 8 MiB)
//   --data-dir=<path>  durable store directory: every SetupStore slot
//                      persists as a snapshot in the mmap-native
//                      container, Update batches append to a write-ahead
//                      log, and boot maps each snapshot (verifying every
//                      checksum first) and replays the log, so a
//                      restarted server answers exactly as before. A
//                      snapshot in the retired v1 container fails the
//                      boot with its file named.
//   --drain-timeout-ms=<ms>  graceful-drain budget: the first
//                      SIGTERM/SIGINT stops accepting and lets in-flight
//                      streams finish up to this long before exiting
//                      (default 10000; a second signal aborts immediately)
//   --mmap=on          accepted for compatibility: durable stores are
//                      always served off their mapped snapshots; any
//                      other value exits 2

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>

#include "server/cli_flags.h"
#include "server/server.h"

namespace {

using rsse::server::FlagValue;
using rsse::server::NumericFlag;

rsse::server::EmmServer* g_server = nullptr;
volatile std::sig_atomic_t g_signals_seen = 0;

// First signal: drain (stop accepting, finish in-flight streams, exit 0).
// Second: hard shutdown. Both paths are async-signal-safe — an atomic
// store plus one write() to the server's self-wake pipe.
void HandleSignal(int) {
  if (g_server == nullptr) return;
  const std::sig_atomic_t seen = g_signals_seen;
  g_signals_seen = seen + 1;
  if (seen == 0) {
    g_server->BeginDrain();
  } else {
    g_server->Shutdown();
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "rsse_serverd: encrypted-range-search server (all schemes)\n"
          "  --bind=<ipv4>  --port=<port>  --shards=<n>  --threads=<n>\n"
          "  --max-level=<l>  (largest GGM subtree per token, default 26)\n"
          "  --max-keyword-tokens=<n>  (largest keyword batch, "
          "default 65536)\n"
          "  --search-workers=<n>  (search-worker pool size, default: "
          "the --threads resolution)\n"
          "  --max-outbound-bytes=<n>  (per-connection outbound "
          "high-water mark, 0 = unbounded, default 8 MiB)\n"
          "  --data-dir=<path>  (durable store snapshots + update WAL; "
          "boot maps and checksums the snapshots, then replays the WAL)\n"
          "  --drain-timeout-ms=<ms>  (graceful-drain budget after "
          "SIGTERM/SIGINT, default 10000)\n"
          "  --mmap=on  (accepted for compatibility; durable stores are "
          "always mapped)\n"
          "Numeric values must parse in full and fit their field; anything "
          "else exits 2.\n");
      return 0;
    }
  }
  rsse::server::ServerOptions options;
  options.port = 7370;
  if (const char* v = FlagValue(argc, argv, "bind")) options.bind_address = v;
  NumericFlag(argc, argv, "port", options.port);
  NumericFlag(argc, argv, "shards", options.shards);
  NumericFlag(argc, argv, "threads", options.search_threads);
  NumericFlag(argc, argv, "max-level", options.max_token_level);
  NumericFlag(argc, argv, "max-keyword-tokens", options.max_keyword_tokens);
  NumericFlag(argc, argv, "search-workers", options.search_workers);
  NumericFlag(argc, argv, "max-outbound-bytes", options.max_outbound_bytes);
  if (const char* v = FlagValue(argc, argv, "data-dir")) {
    options.data_dir = v;
  }
  NumericFlag(argc, argv, "drain-timeout-ms", options.drain_timeout_ms);
  if (const char* v = FlagValue(argc, argv, "mmap");
      v != nullptr && std::strcmp(v, "on") != 0) {
    std::fprintf(stderr,
                 "rsse_serverd: --mmap accepts only 'on' (got '%s'); durable "
                 "stores are always served off their mapped snapshots\n",
                 v);
    return 2;
  }

  rsse::server::EmmServer server(options);
  const auto recover_start = std::chrono::steady_clock::now();
  rsse::Status s = server.Listen();
  if (!s.ok()) {
    std::fprintf(stderr, "rsse_serverd: %s\n", s.ToString().c_str());
    return 1;
  }
  if (!options.data_dir.empty()) {
    const auto& rec = server.recovery_stats();
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - recover_start)
            .count();
    std::printf(
        "rsse_serverd: recovered %zu store(s), %zu wal record(s) in %lld ms"
        " (%zu corrupt snapshot(s) dropped, %zu torn wal byte(s) cut)\n",
        rec.stores_recovered, rec.wal_records_applied,
        static_cast<long long>(elapsed_ms), rec.corrupt_snapshots_dropped,
        rec.wal_bytes_truncated);
    for (const auto& mem : server.StoreMemory()) {
      std::printf(
          "rsse_serverd: store %u: %llu mapped byte(s), %llu heap byte(s), "
          "snapshot v%u\n",
          mem.store_id, static_cast<unsigned long long>(mem.mapped_bytes),
          static_cast<unsigned long long>(mem.heap_bytes),
          mem.snapshot_format);
    }
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("rsse_serverd: listening on %s:%u\n",
              options.bind_address.c_str(), server.port());
  std::fflush(stdout);
  s = server.Serve();
  if (!s.ok()) {
    std::fprintf(stderr, "rsse_serverd: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("rsse_serverd: shut down cleanly\n");
  return 0;
}
