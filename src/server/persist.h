#ifndef RSSE_SERVER_PERSIST_H_
#define RSSE_SERVER_PERSIST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace rsse::server {

/// Crash-safe on-disk state for the server's store table (`--data-dir`).
/// Layout, one pair of files per hosted slot:
///
///   store-<id>.snap   the slot's index and gate in the mmap-native
///                     snapshot container (see persist.cc)
///   store-<id>.wal    length-prefixed log of raw Update payloads
///
/// The container is one 4 KiB header page (checksummed on its own), the
/// page-aligned index, then the gate blob with its own CRC32C. Recovery
/// reads the header page and the gate only; the index stays on disk for
/// the server to map, and the index carries its own checksums (an EMM
/// slot's v2 store image has one per section, a filter-tree blob a
/// trailing CRC32C that the server appends), which the server verifies
/// before it serves.
///
/// Snapshots are written tmp-file + fsync + atomic-rename + directory
/// fsync, so a crash mid-write leaves the previous snapshot intact. Every
/// snapshot carries an *epoch* (monotonic per slot), and every WAL record
/// is tagged with the epoch of the snapshot it applies on top of: recovery
/// replays only the records matching the recovered snapshot's epoch, so the
/// crash window between "snapshot renamed" and "stale WAL truncated" can
/// never replay an old generation's updates onto a new index. WAL records
/// are CRC32C-checksummed and the log self-truncates at the first torn or
/// corrupt record — the durable prefix survives, the torn tail is cut.
///
/// A failed append rolls its torn record back off the log immediately
/// (nacked batches leave no garbage behind which later acked appends
/// would land — recovery stops at the first bad record, so such appends
/// would be silently dropped). When the rollback itself cannot be made
/// durable the slot's WAL is *poisoned*: every further append is refused
/// until the next successful snapshot truncates the log.
///
/// Thread-safety: the mutable fd cache and poison set are guarded by an
/// internal mutex, so any one method is safe to call from any thread. The
/// server still serializes *semantically* dependent calls (snapshot vs.
/// append ordering for one slot) under its exclusive store lock — the
/// internal lock is uncontended there and exists so the invariants hold
/// by construction, not by caller convention.
class StorePersistence {
 public:
  ~StorePersistence();

  StorePersistence(const StorePersistence&) = delete;
  StorePersistence& operator=(const StorePersistence&) = delete;

  /// Opens (creating if needed) the data directory.
  static Result<std::unique_ptr<StorePersistence>> Open(
      const std::string& dir);

  const std::string& dir() const { return dir_; }

  /// One slot's durable state as read back at boot.
  struct RecoveredStore {
    uint32_t store_id = 0;
    bool has_snapshot = false;
    uint8_t kind = 0;
    /// Snapshot epoch (0 when the slot is WAL-only).
    uint64_t epoch = 0;
    /// The index stays on disk: map [index_offset, index_offset +
    /// index_len) of `snapshot_path`.
    std::string snapshot_path;
    uint64_t index_offset = 0;
    uint64_t index_len = 0;
    Bytes gate_blob;
    /// WAL payloads of this epoch, in append order (raw UpdateRequest
    /// encodings, exactly as the wire delivered them).
    std::vector<Bytes> updates;
  };

  struct RecoveryReport {
    std::vector<RecoveredStore> stores;
    /// Slots dropped because their snapshot failed its checksum (the bad
    /// file is set aside as .corrupt and the slot restarts empty).
    size_t corrupt_snapshots = 0;
    /// Torn/corrupt WAL tail bytes cut during replay.
    size_t wal_bytes_truncated = 0;
    /// Epoch-mismatched WAL records skipped (updates superseded by a
    /// later snapshot that crashed before truncating the log).
    size_t stale_wal_records = 0;
  };

  /// Scans the directory and rebuilds every slot's durable state. Also
  /// truncates torn WAL tails and removes stray .tmp files, so the
  /// directory is clean once recovery returns. Call once, before serving.
  /// A snapshot in the retired v1 container fails the whole recovery with
  /// an error naming the file, leaving it and its WAL untouched.
  Result<RecoveryReport> Recover();

  /// Durably replaces slot `store_id`'s snapshot (tmp + fsync + rename +
  /// dir fsync) under the given epoch, which must exceed every epoch the
  /// slot has used before (the server passes recovered-or-last + 1). On
  /// success the slot's now-stale WAL is truncated.
  ///
  /// The atomic rename is the commit point: once it succeeds this returns
  /// Ok — a recovery from here on loads the new snapshot, so reporting a
  /// later step's failure would make the caller keep the old store and
  /// epoch while a restart serves the new one. A post-rename directory
  /// fsync failure (new-entry durability ambiguous) instead poisons the
  /// slot's WAL, so no acked update can be tagged with an epoch a crash
  /// might roll back; the next clean snapshot re-enables appends. The
  /// slot's WAL is created before the rename, so the same directory fsync
  /// makes its entry durable too.
  Status PersistSnapshot(uint32_t store_id, uint64_t epoch, uint8_t kind,
                         ConstByteSpan index_blob, ConstByteSpan gate_blob);

  /// Durably appends one Update payload to slot `store_id`'s WAL (fsync'd
  /// before returning, so the server may ack the batch). A WAL whose
  /// directory entry is not yet durable (created since the last directory
  /// fsync) gets one first; if it fails, nothing is appended. On failure
  /// the partial record is rolled back (see the class comment); a
  /// poisoned slot refuses the append outright.
  Status AppendUpdate(uint32_t store_id, uint64_t epoch,
                      ConstByteSpan payload);

  /// Sets a slot's unusable durable state aside: the snapshot is renamed
  /// to .snap.corrupt (kept for forensics, ignored by future recoveries)
  /// and the WAL — which applied on top of the lost base — is truncated.
  /// Best-effort; used by recovery for snapshots that fail their checksum
  /// or refuse to deserialize.
  void QuarantineSlot(uint32_t store_id);

  /// Fsyncs every open WAL (drain-time belt and braces; appends are
  /// already fsync'd individually).
  Status Sync();

  // --- record codec, exposed for tests and fuzzing ---

  struct WalRecord {
    uint64_t epoch = 0;
    Bytes payload;
  };

  /// Appends one encoded WAL record ([u32 len][u32 crc][u64 epoch]
  /// [payload], big-endian, crc over epoch + payload) to `out`.
  static void EncodeWalRecord(uint64_t epoch, ConstByteSpan payload,
                              Bytes& out);

  /// Decodes consecutive records from `buf`, stopping at the first torn or
  /// corrupt one. Returns the byte offset just past the last good record
  /// (== buf.size() iff the whole buffer parsed cleanly).
  static size_t DecodeWalRecords(const Bytes& buf,
                                 std::vector<WalRecord>& out);

 private:
  StorePersistence() = default;

  std::string SnapshotPath(uint32_t store_id) const;
  std::string WalPath(uint32_t store_id) const;
  /// Append fd for a slot's WAL, opened (and cached) on first use. Creating
  /// the file sets `wal_entry_unsynced_`.
  Result<int> WalFd(uint32_t store_id) RSSE_REQUIRES(mu_);
  /// QuarantineSlot's body, for callers already holding `mu_`.
  void QuarantineSlotLocked(uint32_t store_id) RSSE_REQUIRES(mu_);

  /// Immutable after Open().
  std::string dir_;
  int dir_fd_ = -1;

  /// Guards the per-slot mutable state below.
  Mutex mu_;
  std::map<uint32_t, int> wal_fds_ RSSE_GUARDED_BY(mu_);
  /// Slots whose WAL may end in a torn record that could not be rolled
  /// back durably (or whose snapshot's directory entry never fsync'd):
  /// appends are refused until a snapshot truncates the log cleanly.
  std::set<uint32_t> poisoned_wals_ RSSE_GUARDED_BY(mu_);
  /// A WAL was created since the last successful directory fsync: a crash
  /// could drop its entry, and every record in it, so no append is acked
  /// before the next directory fsync.
  bool wal_entry_unsynced_ RSSE_GUARDED_BY(mu_) = false;
};

}  // namespace rsse::server

#endif  // RSSE_SERVER_PERSIST_H_
