#ifndef RSSE_SERVER_SERVER_H_
#define RSSE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dprf/ggm_dprf.h"
#include "pb/filter_tree.h"
#include "rsse/bloom_gate.h"
#include "rsse/local_backend.h"
#include "rsse/party.h"
#include "server/persist.h"
#include "server/wire.h"
#include "shard/sharded_emm.h"
#include "sse/keyword_keys.h"

namespace rsse::server {

struct ServerOptions {
  /// Listen address (numeric IPv4). Loopback by default: the wire protocol
  /// carries only labels/ciphertexts/tokens, but exposing it wider is a
  /// deployment decision.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via `port()`).
  uint16_t port = 0;
  /// Shards for a store created through Update before any SetupStore.
  /// 0 reads RSSE_SHARDS, defaulting to 1. (A shipped store blob carries
  /// its own shard count.)
  int shards = 0;
  /// Size of the persistent search-worker pool that executes every request
  /// off the poll thread (search batches stream from here); values below 1
  /// run one worker.
  int search_workers = 1;
  /// Per-connection outbound high-water mark, in bytes. A worker streaming
  /// result chunks parks its cursor when the connection's unsent output
  /// (staged + poll-side buffer) would cross this mark, and resumes once
  /// the socket drains below half of it — a slow reader on a huge range
  /// throttles its own query instead of growing the buffer without bound.
  /// 0 disables backpressure (unbounded buffering, the pre-v3 behaviour).
  size_t max_outbound_bytes = size_t{8} << 20;
  /// Largest GGM subtree a SearchBatch token may request (the expansion
  /// buffer is 16 bytes per leaf, so 2^26 leaves = 1 GiB per worker at
  /// peak). The wire format allows up to 62; without this cap one hostile
  /// token could drive an astronomically large allocation.
  int max_token_level = 26;
  /// Largest keyword-token batch one SearchKeyword frame may carry —
  /// the keyword-path equivalent of `max_token_level`: per-token bytes
  /// are already capped by the decoder (kMaxKeywordTokenPartBytes), so
  /// this bounds the total work/allocation one hostile frame can demand.
  size_t max_keyword_tokens = size_t{1} << 16;
  /// Highest SetupStore slot id the server accepts, bounding the store
  /// table a client can grow (the scheme family needs two slots; 16
  /// leaves room for multi-index compositions).
  uint32_t max_store_id = 15;
  /// Result chunking: at most this many ids per SearchResult frame and
  /// payloads per SearchPayload frame. Chunks are interleaved round-robin
  /// across the batch's query ids, so a huge range no longer buffers one
  /// query's ids wholesale and first results of every query arrive early.
  size_t max_ids_per_result_frame = size_t{1} << 14;
  size_t max_payloads_per_result_frame = size_t{1} << 12;
  /// Durable store directory. Empty = in-memory only (the pre-v4
  /// behaviour). When set, every SetupStore slot persists as a snapshot
  /// in the mmap-native container, Update batches append to a per-store
  /// WAL, and Listen() maps each snapshot (verifying every checksum
  /// before it serves) and replays the WAL on top, so a restarted daemon
  /// serves the exact store table it held at the crash. Replayed deltas
  /// live on heap until a clean drain folds them into a fresh snapshot.
  std::string data_dir;
  /// Graceful-drain budget: after BeginDrain(), in-flight streaming
  /// cursors get this long to finish before Serve() exits anyway
  /// (connections cut mid-stream). <= 0 exits immediately, cutting even
  /// connections with unflushed output.
  int drain_timeout_ms = 10000;
};

/// Cumulative serving statistics (reported through StatsResponse). Fields
/// are atomic: handlers run on the worker pool, and `stats()` may be read
/// from any thread while the server serves.
struct ServerStats {
  std::atomic<uint64_t> batches_served{0};
  std::atomic<uint64_t> queries_served{0};
  std::atomic<uint64_t> tokens_received{0};
  /// Tokens answered from another query's expansion in the same batch.
  std::atomic<uint64_t> nodes_deduped{0};
  /// High-water mark of any single connection's outbound queue (staged +
  /// unsent bytes) — the number the `max_outbound_bytes` backpressure cap
  /// bounds.
  AtomicMaxGauge peak_outbound_bytes;
};

/// The server side of the whole scheme family as a standalone process:
/// hosts one store slot per `SetupStore` frame — `shard::ShardedEmm`
/// encrypted dictionaries (with optional Bloom pre-decryption gates) and
/// PB filter trees — and serves the batched binary protocol of wire.h
/// over TCP. The Constant schemes' GGM batches probe the primary slot;
/// SearchKeyword batches name their slot explicitly (SRC-i's round 2 goes
/// to the secondary slot holding I2).
///
/// `SearchBatch` is the reason this exists as a protocol rather than one
/// request per range: queries whose BRC/URC covers share GGM nodes are
/// deduplicated server-side — each distinct (level, seed) subtree is
/// expanded once, its leaf tokens probed once, and the resulting ids fanned
/// back out to every subscribed query id.
///
/// Threading model (v3): the poll thread only accepts, reads, and writes
/// sockets. Every parsed frame becomes a job on its connection's FIFO
/// queue, executed by a persistent pool of `search_workers` threads — so a
/// heavy batch on one connection never head-of-line blocks another
/// connection's requests. Search jobs stream: the worker expands GGM
/// subtrees (or resolves keyword probes) one unit at a time and emits
/// capped result chunks into the connection's staged output as expansion
/// completes, waking the poll loop through the wake pipe; when the
/// connection's outbound queue crosses `max_outbound_bytes` the worker
/// parks the job (stream cursor and expansion progress saved) and the poll
/// thread reschedules it once the socket drains. The store table is
/// guarded by a reader/writer lock: searches take the lock shared per run
/// segment, Update/SetupStore take it exclusive — a batch parked behind a
/// slow reader holds no lock, so it never stalls writers.
class EmmServer {
 public:
  explicit EmmServer(const ServerOptions& options = {});
  ~EmmServer();

  EmmServer(const EmmServer&) = delete;
  EmmServer& operator=(const EmmServer&) = delete;

  /// Binds and listens; fills `port()`. Call once before `Serve`.
  Status Listen();

  /// Bound port (valid after `Listen`).
  uint16_t port() const { return port_; }

  /// Runs the event loop on the calling thread (and the worker pool on
  /// background threads) until `Shutdown`.
  Status Serve();

  /// Stops `Serve` from any thread (idempotent).
  void Shutdown();

  /// Flips the server into graceful drain (async-signal-safe, idempotent):
  /// stop accepting, reject new requests with kErrorDraining, let
  /// in-flight streaming cursors finish up to `drain_timeout_ms`, fsync
  /// the data dir, then Serve() returns OK.
  void BeginDrain();

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// What Listen()'s recovery pass rebuilt from `data_dir` (zeros when no
  /// data dir is configured or nothing was on disk).
  struct RecoveryStats {
    size_t stores_recovered = 0;
    size_t wal_records_applied = 0;
    size_t corrupt_snapshots_dropped = 0;
    size_t wal_bytes_truncated = 0;
  };

  /// Opens `data_dir` and rebuilds the store table from its snapshots and
  /// WALs. Listen() calls this when it has not run yet; it is public so
  /// the daemon can run (and time) recovery before binding the port.
  Status RecoverStores();

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  const ServerStats& stats() const { return stats_; }
  size_t EntryCount() const;

  /// Per-store memory provenance (the observability surface of mmap
  /// serving: the serverd banner and the Stats frame report these).
  struct StoreMemoryInfo {
    uint32_t store_id = 0;
    /// Bytes still served from a mapped snapshot / from owned heap
    /// storage. A freshly mapped store is all mapped; WAL replay and
    /// updates migrate touched shards to heap.
    uint64_t mapped_bytes = 0;
    uint64_t heap_bytes = 0;
    /// Snapshot container generation: 2 once the slot has a snapshot,
    /// 0 when it has none.
    uint8_t snapshot_format = 0;
  };
  std::vector<StoreMemoryInfo> StoreMemory() const;

 private:
  /// Scheduling state of one connection's job queue. At most one job of a
  /// connection executes at a time (responses must leave in request
  /// order); kParked means the head job is paused on backpressure and
  /// waits for the poll thread to drain the socket.
  enum class ExecState : uint8_t { kIdle, kQueued, kRunning, kParked };

  /// Resumable state of one streamed search response. The producer side
  /// resolves one work unit at a time through `rsse::ResolveUnit` (a
  /// deduped GGM subtree for SearchBatch, one keyword probe or one
  /// filter-tree query for SearchKeyword) and appends results per
  /// subscribed query; the emission cursor replays the round-robin chunk
  /// schedule — every query one frame per round (the first possibly
  /// empty), capped chunks alternating — stalling back into production
  /// when the next query in rotation has neither a full chunk nor a
  /// complete result, and parking off the worker when the connection's
  /// outbound queue is over the high-water mark.
  struct ResultStream {
    bool payload_mode = false;  // ids (SearchBatch) vs payloads (keyword)
    uint32_t store_id = rsse::kPrimaryStore;  // the slot probed
    std::vector<uint32_t> query_ids;
    std::vector<std::vector<uint64_t>> ids;
    std::vector<std::vector<Bytes>> payloads;
    /// Per query: work units still unresolved (0 = result complete).
    std::vector<size_t> open_parts;

    /// The family every work unit carries.
    rsse::TokenFamily family = rsse::TokenFamily::kGgm;

    // Producer work units (exactly the family's vector is populated).
    std::vector<GgmDprf::Token> tokens;  // SearchBatch: deduped subtrees
    /// Per token: subscribed query indices (with multiplicity, mirroring
    /// the query's token list).
    std::vector<std::vector<uint32_t>> token_queries;
    struct KeywordProbe {
      uint32_t query = 0;
      sse::KeywordKeys keys;
    };
    std::vector<KeywordProbe> probes;          // keyword path, EMM stores
    std::vector<std::vector<Bytes>> trapdoors; // keyword path, filter tree
    size_t next_work = 0;
    size_t work_count = 0;
    /// What the resolved units added up (gate skips, leaves searched).
    rsse::ResolveStats resolved;

    // Emission cursor.
    size_t round = 0;
    size_t q = 0;
    bool round_emitted = false;
    std::vector<size_t> offset;

    /// Accumulated terminating-frame statistics (search_nanos counts
    /// active worker segments, not parked time).
    SearchDone done;
  };

  /// One parsed request awaiting (or undergoing) execution.
  struct Job {
    FrameType type = FrameType::kError;
    Bytes payload;
    /// Non-empty: a poll-thread protocol error to report in sequence
    /// (malformed frame) instead of dispatching `type`.
    std::string protocol_error;
    /// Search jobs: streaming state once execution has started.
    std::unique_ptr<ResultStream> stream;
  };

  struct Connection {
    // Poll-thread-owned socket state.
    int fd = -1;
    Bytes in;
    size_t in_offset = 0;  // bytes of `in` already parsed
    Bytes out;
    size_t out_offset = 0;  // bytes of `out` already sent
    bool closing = false;   // no more reads; flush, finish jobs, close
    bool input_paused = false;  // job queue full: stop POLLIN until it drains

    // Shared with the worker pool; guarded by `mu`.
    Mutex mu;
    /// Worker-emitted frames awaiting the poll thread.
    Bytes staged RSSE_GUARDED_BY(mu);
    std::deque<Job> jobs RSSE_GUARDED_BY(mu);
    ExecState state RSSE_GUARDED_BY(mu) = ExecState::kIdle;
    /// Unsent output in bytes (staged + out past out_offset). Written
    /// under `mu`; atomic so the emitting worker can check the high-water
    /// mark without the lock.
    std::atomic<size_t> outbound_bytes{0};
    /// Set by the poll thread when the connection is dropped; a worker
    /// mid-job aborts at its next emission.
    std::atomic<bool> closed{false};
    /// Set by a worker that hit a protocol breach (response-only frame
    /// type); the poll thread folds it into `closing` on its next sweep.
    std::atomic<bool> close_requested{false};
  };

  /// One hosted store slot: an encrypted dictionary (plus optional gate)
  /// or a PB filter tree, per its `kind`.
  struct HostedStore {
    rsse::StoreKind kind = rsse::StoreKind::kEmm;
    shard::ShardedEmm emm;
    std::unique_ptr<rsse::BloomLabelGate> gate;
    std::unique_ptr<pb::FilterTreeIndex> tree;

    /// The resolver's view of this store when hosted at `slot`.
    rsse::StoreRef Ref(uint32_t slot) const {
      return {slot, kind, kind == rsse::StoreKind::kEmm ? &emm : nullptr,
              gate.get(), tree.get()};
    }
  };

  // --- poll thread ---
  void AcceptPending();
  /// Returns false when the connection should be dropped.
  bool ReadPending(const std::shared_ptr<Connection>& conn);
  bool WritePending(Connection& conn);
  /// Staged-output pump + unpark + closing-drain check; returns true when
  /// a closing connection has fully finished and should be dropped.
  bool PumpConnection(const std::shared_ptr<Connection>& conn);
  void DropConnection(size_t index);
  void CloseAll();
  void EnqueueJob(const std::shared_ptr<Connection>& conn, Job&& job);

  // --- worker pool ---
  void StartWorkers();
  void StopWorkers();
  void WorkerLoop();
  /// Hands `conn` to the worker pool. Called with `conn->mu` held: the
  /// connection's ExecState transition to kQueued and its appearance on
  /// the ready queue must be one atomic step, or a racing worker could
  /// observe a queued connection in the wrong state.
  void PushReadyLocked(const std::shared_ptr<Connection>& conn)
      RSSE_REQUIRES(conn->mu);
  void RunHeadJob(const std::shared_ptr<Connection>& conn);

  enum class JobResult { kDone, kParked };
  JobResult ExecuteJob(Connection& conn, Job& job);
  JobResult StartSearchBatch(Connection& conn, Job& job);
  JobResult StartSearchKeyword(Connection& conn, Job& job);
  /// Runs one producer/emitter segment of a streamed search (under one
  /// shared store-table lock); returns kParked on backpressure.
  JobResult ResumeStream(Connection& conn, Job& job);
  void RunSetupStore(Connection& conn, const Bytes& payload);
  void RunUpdate(Connection& conn, const Bytes& payload);
  void RunStats(Connection& conn);

  // --- emission (worker side) ---
  enum class EmitResult { kStall, kPark, kFinished, kAbort };
  /// Advances the emission cursor as far as available data and the
  /// outbound high-water mark allow.
  EmitResult PumpEmission(Connection& conn, ResultStream& s);
  /// Encodes and stages one frame; false when the connection is gone or
  /// the payload cannot be framed (`oversize_error` is staged instead).
  bool EmitFrame(Connection& conn, FrameType type, ConstByteSpan payload,
                 const char* oversize_error);
  bool EmitEncoded(Connection& conn, const Bytes& frame);
  void EmitError(Connection& conn, const std::string& message);
  void EmitDrainingError(Connection& conn);
  void WakePoll();

  /// True when every connection is fully quiesced (no queued or running
  /// jobs, all output flushed) — the drain loop's exit condition.
  bool AllConnectionsQuiesced();

  /// Rebuilds one recovered slot (map and verify its snapshot, then
  /// replay its WAL) into the store table. Called under the exclusive
  /// store lock.
  Status InstallRecoveredStore(const StorePersistence::RecoveredStore& rec)
      RSSE_REQUIRES(store_mutex_);

  /// Re-snapshots every dirty (updated-since-snapshot) EMM store as a v2
  /// image — the clean-drain fold that turns WAL deltas back into a
  /// mappable file. Failures are logged, not fatal (the WAL still covers
  /// the deltas).
  void FoldDirtyStores();

  /// StoreMemoryInfo::snapshot_format of a slot: a slot has a snapshot
  /// exactly when its epoch is above 0.
  uint8_t SnapshotGeneration(uint32_t store_id) const
      RSSE_REQUIRES_SHARED(store_mutex_);

  /// The store hosted at `slot` (`StoreRef{slot}` when none). Its
  /// pointers stay valid while the store lock is held.
  rsse::StoreRef FindStore(uint32_t slot) const
      RSSE_REQUIRES_SHARED(store_mutex_);

  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};
  uint16_t port_ = 0;
  /// One-way stop latch: a Shutdown that lands before Serve starts must
  /// still win, so Serve never resets it.
  std::atomic<bool> stop_{false};
  /// One-way drain latch (BeginDrain); checked by workers when deciding
  /// whether to start new requests.
  std::atomic<bool> draining_{false};
  /// Durable store table (nullptr when data_dir is empty). The pointer is
  /// written once during RecoverStores (before Serve) and only read
  /// afterwards; StorePersistence locks its own mutable state internally.
  std::unique_ptr<StorePersistence> persist_;
  bool recovered_ = false;
  /// Written only during RecoverStores (single-threaded, before Serve).
  RecoveryStats recovery_stats_;
  /// Guards the store table and its persistence bookkeeping: searches
  /// take it shared per run segment, SetupStore/Update/recovery exclusive.
  mutable SharedMutex store_mutex_;
  /// Per-slot snapshot epoch (see persist.h); 0 until the slot has one.
  std::map<uint32_t, uint64_t> store_epochs_ RSSE_GUARDED_BY(store_mutex_);
  /// EMM slots updated since their last snapshot (WAL deltas pending a
  /// fold).
  std::set<uint32_t> dirty_stores_ RSSE_GUARDED_BY(store_mutex_);
  /// Store table, keyed by store slot.
  std::map<uint32_t, HostedStore> stores_ RSSE_GUARDED_BY(store_mutex_);
  bool hosted_ RSSE_GUARDED_BY(store_mutex_) = false;
  ServerStats stats_;
  /// Poll-thread-owned connection list (workers reach connections only
  /// through the shared_ptrs handed to them on the ready queue).
  std::vector<std::shared_ptr<Connection>> conns_;

  // Worker pool + ready queue (connections with a runnable head job).
  Mutex work_mu_;
  CondVar work_cv_;
  std::deque<std::shared_ptr<Connection>> ready_ RSSE_GUARDED_BY(work_mu_);
  bool workers_stop_ RSSE_GUARDED_BY(work_mu_) = false;
  /// Started/joined by the Serve thread only.
  std::vector<std::thread> workers_;
};

}  // namespace rsse::server

#endif  // RSSE_SERVER_SERVER_H_
