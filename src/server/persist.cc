#include "server/persist.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <utility>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/mapped_file.h"

namespace rsse::server {

namespace {

/// "RSSESNP1", big-endian: the retired v1 container (the blobs under one
/// whole-file CRC32C). Recovery recognises it only to refuse it.
constexpr uint64_t kSnapshotMagicV1 = 0x52535345534e5031ull;

/// "RSSESNP2", big-endian: the snapshot container. One header page
/// (big-endian integers, like the rest of this file's formats):
///
///   [0]  u64 magic   [8]  u8 kind    [9]  u64 epoch
///   [17] u64 index_offset (== 4096)  [25] u64 index_len
///   [33] u64 gate_offset             [41] u64 gate_len
///   [49] u32 gate crc32c (0 when no gate)
///   [53] u32 header crc32c over [0, 53), rest of the page zero
///
/// then the index at its page-aligned offset, zero-padded to the next
/// page, then the gate blob; file size == gate_offset + gate_len. The
/// header page and gate are all recovery reads (O(1) in the index size);
/// the server verifies the index's own checksums when it maps it.
constexpr uint64_t kSnapshotMagic = 0x52535345534e5032ull;
constexpr size_t kSnapshotPageBytes = 4096;
constexpr size_t kSnapshotFieldBytes = 8 + 1 + 8 + 8 + 8 + 8 + 8 + 4;

size_t AlignSnapshotPage(size_t n) {
  return (n + kSnapshotPageBytes - 1) & ~(kSnapshotPageBytes - 1);
}
/// WAL record framing: [u32 len][u32 crc] then len bytes (epoch+payload).
constexpr size_t kWalRecordHeaderBytes = 8;
constexpr uint32_t kMaxWalRecordBytes = uint32_t{1} << 30;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

int OpenRetry(const char* path, int flags, mode_t mode = 0) {
  int fd;
  do {
    fd = open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

Status FsyncRetry(int fd, const std::string& what) {
  int rc;
  do {
    rc = fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc == 0 ? Status::Ok() : Errno(what);
}

/// Writes all of `data`, retrying short writes and EINTR. `failpoint_name`
/// hooks fault injection: kError fails before writing a byte, kShortWrite
/// writes half the buffer and then fails (a torn tail on disk).
Status WriteFull(int fd, const uint8_t* data, size_t len,
                 const char* failpoint_name) {
  const failpoint::Action fp = failpoint::Hit(failpoint_name);
  if (fp.kind == failpoint::ActionKind::kError) {
    return Status::Internal(std::string("injected write failure at ") +
                            failpoint_name);
  }
  bool fail_after_prefix = false;
  if (fp.kind == failpoint::ActionKind::kShortWrite) {
    len /= 2;
    fail_after_prefix = true;
  }
  size_t done = 0;
  while (done < len) {
    const ssize_t n = write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    done += static_cast<size_t>(n);
  }
  if (fail_after_prefix) {
    return Status::Internal(std::string("injected short write at ") +
                            failpoint_name);
  }
  return Status::Ok();
}

Result<Bytes> ReadWholeFile(const std::string& path) {
  const int fd = OpenRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open " + path);
  Bytes out;
  uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Errno("read " + path);
      close(fd);
      return s;
    }
    if (n == 0) break;
    out.insert(out.end(), chunk, chunk + n);
  }
  close(fd);
  return out;
}

/// Parses "store-<id>.<suffix>"; returns true and fills `id` on match.
bool ParseStoreFile(const char* name, const char* suffix, uint32_t& id) {
  static constexpr char kPrefix[] = "store-";
  if (std::strncmp(name, kPrefix, sizeof(kPrefix) - 1) != 0) return false;
  const char* at = name + sizeof(kPrefix) - 1;
  if (*at < '0' || *at > '9') return false;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(at, &end, 10);
  if (end == at || parsed > UINT32_MAX) return false;
  if (std::strcmp(end, suffix) != 0) return false;
  id = static_cast<uint32_t>(parsed);
  return true;
}

bool HasSuffix(const char* name, const char* suffix) {
  const size_t n = std::strlen(name);
  const size_t s = std::strlen(suffix);
  return n >= s && std::strcmp(name + n - s, suffix) == 0;
}

}  // namespace

StorePersistence::~StorePersistence() {
  // No thread may still be calling in, but the lock keeps the analysis
  // honest (and is free).
  MutexLock lock(mu_);
  for (auto& [id, fd] : wal_fds_) {
    if (fd >= 0) close(fd);
  }
  if (dir_fd_ >= 0) close(dir_fd_);
}

Result<std::unique_ptr<StorePersistence>> StorePersistence::Open(
    const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("data dir must be named");
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir " + dir);
  }
  const int dir_fd = OpenRetry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return Errno("open " + dir);
  auto persistence = std::unique_ptr<StorePersistence>(new StorePersistence());
  persistence->dir_ = dir;
  persistence->dir_fd_ = dir_fd;
  return persistence;
}

std::string StorePersistence::SnapshotPath(uint32_t store_id) const {
  return dir_ + "/store-" + std::to_string(store_id) + ".snap";
}

std::string StorePersistence::WalPath(uint32_t store_id) const {
  return dir_ + "/store-" + std::to_string(store_id) + ".wal";
}

Result<int> StorePersistence::WalFd(uint32_t store_id) {
  auto it = wal_fds_.find(store_id);
  if (it != wal_fds_.end() && it->second >= 0) return it->second;
  const std::string path = WalPath(store_id);
  int fd = OpenRetry(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0 && errno == ENOENT) {
    fd = OpenRetry(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644);
    if (fd >= 0) wal_entry_unsynced_ = true;
  }
  if (fd < 0) return Errno("open " + path);
  wal_fds_[store_id] = fd;
  return fd;
}

// ---------------------------------------------------------------------------
// WAL record codec.
// ---------------------------------------------------------------------------

void StorePersistence::EncodeWalRecord(uint64_t epoch, ConstByteSpan payload,
                                       Bytes& out) {
  const size_t body_at = out.size() + kWalRecordHeaderBytes;
  AppendUint32(out, static_cast<uint32_t>(8 + payload.size()));
  AppendUint32(out, 0);  // crc patched below, once the body is in place
  AppendUint64(out, epoch);
  out.insert(out.end(), payload.begin(), payload.end());
  const uint32_t crc = Crc32c(out.data() + body_at, out.size() - body_at);
  out[body_at - 4] = static_cast<uint8_t>(crc >> 24);
  out[body_at - 3] = static_cast<uint8_t>(crc >> 16);
  out[body_at - 2] = static_cast<uint8_t>(crc >> 8);
  out[body_at - 1] = static_cast<uint8_t>(crc);
}

size_t StorePersistence::DecodeWalRecords(const Bytes& buf,
                                          std::vector<WalRecord>& out) {
  size_t at = 0;
  while (buf.size() - at >= kWalRecordHeaderBytes) {
    const uint32_t len = ReadUint32(buf, at);
    if (len < 8 || len > kMaxWalRecordBytes) break;
    if (buf.size() - at - kWalRecordHeaderBytes < len) break;  // torn tail
    const uint32_t stored_crc = ReadUint32(buf, at + 4);
    const size_t body = at + kWalRecordHeaderBytes;
    if (Crc32c(buf.data() + body, len) != stored_crc) break;
    WalRecord record;
    record.epoch = ReadUint64(buf, body);
    record.payload.assign(buf.begin() + static_cast<long>(body + 8),
                          buf.begin() + static_cast<long>(body + len));
    out.push_back(std::move(record));
    at = body + len;
  }
  return at;
}

// ---------------------------------------------------------------------------
// Durable writes.
// ---------------------------------------------------------------------------

Status StorePersistence::PersistSnapshot(uint32_t store_id, uint64_t epoch,
                                         uint8_t kind,
                                         ConstByteSpan index_blob,
                                         ConstByteSpan gate_blob) {
  const size_t gate_offset =
      kSnapshotPageBytes + AlignSnapshotPage(index_blob.size());
  Bytes file;
  file.reserve(gate_offset + gate_blob.size());
  AppendUint64(file, kSnapshotMagic);
  AppendByte(file, kind);
  AppendUint64(file, epoch);
  AppendUint64(file, kSnapshotPageBytes);  // index_offset
  AppendUint64(file, index_blob.size());
  AppendUint64(file, gate_offset);
  AppendUint64(file, gate_blob.size());
  AppendUint32(file, gate_blob.empty() ? 0 : Crc32c(gate_blob));
  AppendUint32(file, Crc32c(file.data(), file.size()));
  file.resize(kSnapshotPageBytes, 0);
  file.insert(file.end(), index_blob.begin(), index_blob.end());
  file.resize(gate_offset, 0);
  file.insert(file.end(), gate_blob.begin(), gate_blob.end());

  const std::string path = SnapshotPath(store_id);
  const std::string tmp = path + ".tmp";
  const int fd = OpenRetry(tmp.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open " + tmp);
  Status written =
      WriteFull(fd, file.data(), file.size(), "persist_snapshot_write");
  if (written.ok()) {
    if (failpoint::Hit("persist_snapshot_fsync").kind ==
        failpoint::ActionKind::kError) {
      written = Status::Internal("injected fsync failure on snapshot");
    } else {
      written = FsyncRetry(fd, "fsync " + tmp);
    }
  }
  close(fd);
  if (!written.ok()) {
    unlink(tmp.c_str());
    return written;
  }
  // Everything from here on touches the poison set and the fd cache; the
  // slow IO above ran unlocked.
  MutexLock lock(mu_);
  // Create the slot's WAL before the rename, so the directory fsync after
  // it makes the WAL's entry durable with the snapshot's. A failure here
  // only skips the truncate below; AppendUpdate retries the create.
  Result<int> wal_fd = WalFd(store_id);
  if (failpoint::Hit("persist_snapshot_rename").kind ==
      failpoint::ActionKind::kError) {
    unlink(tmp.c_str());
    return Status::Internal("injected rename failure on snapshot");
  }
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    Status s = Errno("rename " + tmp);
    unlink(tmp.c_str());
    return s;
  }
  // The rename is the commit point: a recovery from here on loads the new
  // snapshot, so no failure below may be reported as a nack — the caller
  // would keep the old store and epoch in memory while a restart serves
  // the new file, and acked updates tagged with the stale epoch would be
  // skipped as superseded.
  //
  // The rename is only durable once the directory entry is: without this
  // fsync a crash can resurrect the old snapshot after the WAL was
  // truncated for the new one.
  Status dir_synced;
  if (failpoint::Hit("persist_dir_fsync").kind ==
      failpoint::ActionKind::kError) {
    dir_synced = Status::Internal("injected fsync failure on data dir");
  } else {
    dir_synced = FsyncRetry(dir_fd_, "fsync " + dir_);
  }
  if (!dir_synced.ok()) {
    // Which snapshot a crash would resurrect is now ambiguous, so no
    // update may be acked under either epoch: poison the slot's WAL until
    // a later snapshot commits cleanly.
    std::fprintf(stderr,
                 "rsse: data-dir fsync failed after snapshot rename "
                 "(store %u): %s; wal appends disabled until the next "
                 "snapshot\n",
                 store_id, dir_synced.message().c_str());
    poisoned_wals_.insert(store_id);
    return Status::Ok();
  }
  wal_entry_unsynced_ = false;

  // The previous generation's WAL records are superseded; truncating here
  // is an optimization for an unpoisoned slot — their epoch no longer
  // matches, so a crash landing between rename and truncate just leaves
  // stale records for recovery to skip. For a poisoned slot the truncate
  // is what removes the possible torn tail and re-enables appends.
  bool wal_clean = false;
  if (wal_fd.ok()) {
    int rc;
    do {
      rc = ftruncate(*wal_fd, 0);
    } while (rc != 0 && errno == EINTR);
    wal_clean = rc == 0 && FsyncRetry(*wal_fd, "fsync wal").ok();
  }
  if (wal_clean) {
    poisoned_wals_.erase(store_id);
  } else if (poisoned_wals_.count(store_id) != 0) {
    std::fprintf(stderr,
                 "rsse: wal truncate failed for poisoned store %u; "
                 "appends stay disabled\n",
                 store_id);
  }
  return Status::Ok();
}

Status StorePersistence::AppendUpdate(uint32_t store_id, uint64_t epoch,
                                      ConstByteSpan payload) {
  MutexLock lock(mu_);
  if (poisoned_wals_.count(store_id) != 0) {
    return Status::Internal(
        "wal may end in an unremoved torn record; appends are refused "
        "until the next snapshot truncates it");
  }
  Result<int> fd = WalFd(store_id);
  if (!fd.ok()) return fd.status();
  if (wal_entry_unsynced_) {
    // Without this a power cut could drop the new file's entry, and with
    // it every batch acked into the log.
    if (failpoint::Hit("persist_wal_dir_fsync").kind ==
        failpoint::ActionKind::kError) {
      return Status::Internal("injected fsync failure on data dir");
    }
    RSSE_RETURN_IF_ERROR(FsyncRetry(dir_fd_, "fsync " + dir_));
    wal_entry_unsynced_ = false;
  }
  struct stat st {};
  if (fstat(*fd, &st) != 0) return Errno("fstat " + WalPath(store_id));
  Bytes record;
  EncodeWalRecord(epoch, payload, record);
  Status appended =
      WriteFull(*fd, record.data(), record.size(), "persist_wal_append");
  if (appended.ok()) {
    if (failpoint::Hit("persist_wal_fsync").kind ==
        failpoint::ActionKind::kError) {
      appended = Status::Internal("injected fsync failure on wal");
    } else {
      appended = FsyncRetry(*fd, "fsync " + WalPath(store_id));
    }
  }
  if (appended.ok()) return Status::Ok();
  // The batch is about to be nacked, but its record is torn (short write)
  // or of unknown durability (failed fsync). Left in place it would sit
  // in front of every later acked append, and recovery — which stops at
  // the first bad record — would silently drop them all. Roll the log
  // back to its pre-append length; if that cannot be made durable, poison
  // the slot so no later append can be acked behind the garbage.
  bool rolled_back = failpoint::Hit("persist_wal_rollback").kind !=
                     failpoint::ActionKind::kError;
  if (rolled_back) {
    int rc;
    do {
      rc = ftruncate(*fd, st.st_size);
    } while (rc != 0 && errno == EINTR);
    rolled_back = rc == 0 && FsyncRetry(*fd, "fsync " + WalPath(store_id)).ok();
  }
  if (!rolled_back) poisoned_wals_.insert(store_id);
  return appended;
}

void StorePersistence::QuarantineSlot(uint32_t store_id) {
  MutexLock lock(mu_);
  QuarantineSlotLocked(store_id);
}

void StorePersistence::QuarantineSlotLocked(uint32_t store_id) {
  const std::string snap = SnapshotPath(store_id);
  rename(snap.c_str(), (snap + ".corrupt").c_str());
  // Drop any cached append fd first so the truncate below cannot race a
  // stale descriptor, then cut the whole log: it applied on top of the
  // quarantined base, so nothing in it is replayable.
  auto it = wal_fds_.find(store_id);
  if (it != wal_fds_.end()) {
    if (it->second >= 0) close(it->second);
    wal_fds_.erase(it);
  }
  const int fd =
      OpenRetry(WalPath(store_id).c_str(), O_WRONLY | O_TRUNC | O_CLOEXEC);
  if (fd >= 0) close(fd);
}

Status StorePersistence::Sync() {
  MutexLock lock(mu_);
  for (auto& [id, fd] : wal_fds_) {
    if (fd >= 0) RSSE_RETURN_IF_ERROR(FsyncRetry(fd, "fsync wal"));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

Result<StorePersistence::RecoveryReport> StorePersistence::Recover() {
  RecoveryReport report;
  std::set<uint32_t> slots;
  std::vector<std::string> stray_tmp;
  {
    DIR* d = opendir(dir_.c_str());
    if (d == nullptr) return Errno("opendir " + dir_);
    while (dirent* entry = readdir(d)) {
      uint32_t id = 0;
      if (ParseStoreFile(entry->d_name, ".snap", id) ||
          ParseStoreFile(entry->d_name, ".wal", id)) {
        slots.insert(id);
      } else if (HasSuffix(entry->d_name, ".tmp")) {
        stray_tmp.push_back(dir_ + "/" + entry->d_name);
      }
    }
    closedir(d);
  }
  // A .tmp is a snapshot whose write never completed; the rename never
  // happened, so it holds nothing durable.
  for (const std::string& tmp : stray_tmp) unlink(tmp.c_str());

  for (uint32_t id : slots) {
    RecoveredStore store;
    store.store_id = id;
    const std::string snap_path = SnapshotPath(id);
    bool drop_wal = false;
    if (access(snap_path.c_str(), F_OK) == 0) {
      // Recovery is O(1) in the index size: only the header page and the
      // gate blob are read; the index stays on disk for the server to map.
      struct stat st {};
      const uint64_t file_size =
          stat(snap_path.c_str(), &st) == 0
              ? static_cast<uint64_t>(st.st_size)
              : 0;
      Bytes head;
      if (file_size >= 8) {
        Result<Bytes> h = ReadFileRange(
            snap_path, 0, std::min<uint64_t>(file_size, kSnapshotPageBytes));
        if (!h.ok()) return h.status();
        head = std::move(*h);
      }
      if (head.size() >= 8 && ReadUint64(head, 0) == kSnapshotMagicV1) {
        return Status::FailedPrecondition(
            snap_path +
            " is a v1 snapshot, which this server no longer reads; boot "
            "the data dir once with a release that still does and "
            "--mmap=on (converts encrypted-dictionary slots), or re-ship "
            "the slot with SetupStore");
      }
      bool valid = head.size() == kSnapshotPageBytes &&
                   ReadUint64(head, 0) == kSnapshotMagic &&
                   Crc32c(head.data(), kSnapshotFieldBytes) ==
                       ReadUint32(head, kSnapshotFieldBytes);
      if (valid) {
        const uint64_t index_offset = ReadUint64(head, 17);
        const uint64_t index_len = ReadUint64(head, 25);
        const uint64_t gate_offset = ReadUint64(head, 33);
        const uint64_t gate_len = ReadUint64(head, 41);
        valid = index_offset == kSnapshotPageBytes &&
                index_len <= file_size - kSnapshotPageBytes &&
                gate_offset ==
                    kSnapshotPageBytes + AlignSnapshotPage(index_len) &&
                gate_offset <= file_size &&
                gate_len == file_size - gate_offset;
        if (valid && gate_len > 0) {
          Result<Bytes> gate = ReadFileRange(snap_path, gate_offset, gate_len);
          if (!gate.ok()) return gate.status();
          valid = Crc32c(gate->data(), gate->size()) == ReadUint32(head, 49);
          if (valid) store.gate_blob = std::move(*gate);
        }
        if (valid) {
          store.has_snapshot = true;
          store.kind = head[8];
          store.epoch = ReadUint64(head, 9);
          store.snapshot_path = snap_path;
          store.index_offset = index_offset;
          store.index_len = index_len;
        }
      }
      if (!valid) {
        // The slot's base index is gone; its WAL applies on top of that
        // base, so it is unreplayable too. Set the bad file aside (kept
        // for forensics, ignored by future recoveries) and restart the
        // slot empty rather than refusing to serve every other slot.
        ++report.corrupt_snapshots;
        QuarantineSlot(id);
        drop_wal = true;
      }
    }

    const std::string wal_path = WalPath(id);
    if (!drop_wal && access(wal_path.c_str(), F_OK) == 0) {
      Result<Bytes> file = ReadWholeFile(wal_path);
      if (!file.ok()) return file.status();
      std::vector<WalRecord> records;
      const size_t good_end = DecodeWalRecords(*file, records);
      if (good_end < file->size()) {
        report.wal_bytes_truncated += file->size() - good_end;
        const int fd =
            OpenRetry(wal_path.c_str(), O_WRONLY | O_CLOEXEC);
        if (fd < 0) return Errno("open " + wal_path);
        int rc;
        do {
          rc = ftruncate(fd, static_cast<off_t>(good_end));
        } while (rc != 0 && errno == EINTR);
        Status synced = rc == 0 ? FsyncRetry(fd, "fsync " + wal_path)
                                : Errno("ftruncate " + wal_path);
        close(fd);
        RSSE_RETURN_IF_ERROR(synced);
      }
      for (WalRecord& record : records) {
        if (record.epoch == store.epoch) {
          store.updates.push_back(std::move(record.payload));
        } else {
          ++report.stale_wal_records;
        }
      }
    }

    if (store.has_snapshot || !store.updates.empty()) {
      report.stores.push_back(std::move(store));
    }
  }
  return report;
}

}  // namespace rsse::server
