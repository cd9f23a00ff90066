// Crash-safety of the server's durable store table: the snapshot
// container and WAL codecs, torn-tail truncation, epoch filtering of stale
// WAL records, corrupt-snapshot quarantine, and full EmmServer recovery —
// a server restarted from --data-dir must rebuild exactly the store table
// the old process acked, and set aside any slot whose bytes do not check.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/mapped_file.h"
#include "common/rng.h"
#include "data/generators.h"
#include "pb/pb_scheme.h"
#include "rsse/factory.h"
#include "server/client.h"
#include "server/persist.h"
#include "server/remote_backend.h"
#include "server/server.h"
#include "server/wire.h"

namespace rsse::server {
namespace {

/// A fresh empty directory under the test temp root, removed on teardown.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "rsse_persist_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    EXPECT_NE(mkdtemp(buf.data()), nullptr);
    path_ = buf.data();
  }

  ~TempDir() {
    // Recursive removal without shelling out: the suite only ever writes
    // flat files into the directory.
    DIR* d = opendir(path_.c_str());
    if (d != nullptr) {
      while (dirent* entry = readdir(d)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") {
          unlink((path_ + "/" + name).c_str());
        }
      }
      closedir(d);
    }
    rmdir(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Bytes Blob(size_t n, uint8_t seed) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) b[i] = static_cast<uint8_t>(seed + i * 31);
  return b;
}

Result<Bytes> ReadFile(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::Internal("open " + path);
  Bytes out;
  uint8_t chunk[4096];
  size_t n;
  while ((n = fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out.insert(out.end(), chunk, chunk + n);
  }
  fclose(f);
  return out;
}

void WriteFile(const std::string& path, const Bytes& data) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fwrite(data.data(), 1, data.size(), f), data.size());
  fclose(f);
}

/// The index bytes a recovered slot's snapshot holds on disk.
Bytes IndexOf(const StorePersistence::RecoveredStore& store) {
  auto bytes = ReadFileRange(store.snapshot_path, store.index_offset,
                             store.index_len);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : Bytes{};
}

TEST(WalCodecTest, RoundTripsMultipleRecords) {
  Bytes log;
  StorePersistence::EncodeWalRecord(7, ConstByteSpan(Blob(100, 1)), log);
  StorePersistence::EncodeWalRecord(7, ConstByteSpan(Blob(0, 0)), log);
  StorePersistence::EncodeWalRecord(9, ConstByteSpan(Blob(33, 5)), log);

  std::vector<StorePersistence::WalRecord> records;
  EXPECT_EQ(StorePersistence::DecodeWalRecords(log, records), log.size());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].epoch, 7u);
  EXPECT_EQ(records[0].payload, Blob(100, 1));
  EXPECT_TRUE(records[1].payload.empty());
  EXPECT_EQ(records[2].epoch, 9u);
  EXPECT_EQ(records[2].payload, Blob(33, 5));
}

TEST(WalCodecTest, TornTailStopsAtLastGoodRecord) {
  Bytes log;
  StorePersistence::EncodeWalRecord(1, ConstByteSpan(Blob(64, 2)), log);
  const size_t good = log.size();
  StorePersistence::EncodeWalRecord(1, ConstByteSpan(Blob(64, 3)), log);
  log.resize(log.size() - 17);  // tear the second record mid-payload

  std::vector<StorePersistence::WalRecord> records;
  EXPECT_EQ(StorePersistence::DecodeWalRecords(log, records), good);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, Blob(64, 2));
}

TEST(WalCodecTest, EveryCorruptedByteIsCaught) {
  // Wire-fuzz matrix for the record decoder: flipping any single byte of
  // a record — length, checksum, epoch, or payload — must stop the decode
  // at the record boundary, never crash, and never yield altered bytes.
  Bytes log;
  StorePersistence::EncodeWalRecord(3, ConstByteSpan(Blob(24, 9)), log);
  for (size_t i = 0; i < log.size(); ++i) {
    Bytes bad = log;
    bad[i] ^= 0x40;
    std::vector<StorePersistence::WalRecord> records;
    const size_t end = StorePersistence::DecodeWalRecords(bad, records);
    if (!records.empty()) {
      // The only way a flip survives is not possible with a sound CRC:
      // any accepted record must carry the original bytes.
      EXPECT_EQ(records[0].payload, Blob(24, 9)) << "flipped byte " << i;
      EXPECT_EQ(end, log.size());
    } else {
      EXPECT_EQ(end, 0u) << "flipped byte " << i;
    }
  }
}

TEST(WalCodecTest, TruncatedPrefixesNeverCrash) {
  Bytes log;
  StorePersistence::EncodeWalRecord(2, ConstByteSpan(Blob(40, 4)), log);
  for (size_t keep = 0; keep < log.size(); ++keep) {
    Bytes prefix(log.begin(), log.begin() + static_cast<long>(keep));
    std::vector<StorePersistence::WalRecord> records;
    EXPECT_EQ(StorePersistence::DecodeWalRecords(prefix, records), 0u);
    EXPECT_TRUE(records.empty());
  }
}

TEST(PersistTest, WalReplaysInOrderAndSurvivesReopen) {
  TempDir dir;
  {
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(
        (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(64, 1)), {}).ok());
    ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(50, 2))).ok());
    ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(60, 3))).ok());
  }
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  ASSERT_EQ(report->stores[0].updates.size(), 2u);
  EXPECT_EQ(report->stores[0].updates[0], Blob(50, 2));
  EXPECT_EQ(report->stores[0].updates[1], Blob(60, 3));
}

TEST(PersistTest, NewSnapshotSupersedesOldWal) {
  // The crash window the epochs close: snapshot renamed, WAL not yet
  // truncated. The old generation's records must not replay on top of the
  // new index.
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(64, 1)), {}).ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(50, 2))).ok());
  // Simulate the crash: append a stale-epoch record directly (as if the
  // truncate in PersistSnapshot never ran after a epoch-2 snapshot).
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 2, 0, ConstByteSpan(Blob(64, 9)), {}).ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(50, 3))).ok());

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_EQ(report->stores[0].epoch, 2u);
  EXPECT_EQ(IndexOf(report->stores[0]), Blob(64, 9));
  EXPECT_TRUE(report->stores[0].updates.empty())
      << "epoch-1 records must not replay onto the epoch-2 snapshot";
  EXPECT_EQ(report->stale_wal_records, 1u);
}

TEST(PersistTest, TornWalTailIsTruncatedOnDisk) {
  TempDir dir;
  const std::string wal = dir.path() + "/store-0.wal";
  Bytes log;
  StorePersistence::EncodeWalRecord(0, ConstByteSpan(Blob(40, 1)), log);
  const size_t good = log.size();
  StorePersistence::EncodeWalRecord(0, ConstByteSpan(Blob(40, 2)), log);
  log.resize(log.size() - 5);
  WriteFile(wal, log);

  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->wal_bytes_truncated, log.size() - good);
  ASSERT_EQ(report->stores.size(), 1u);
  ASSERT_EQ(report->stores[0].updates.size(), 1u);
  EXPECT_FALSE(report->stores[0].has_snapshot);

  // The tail is gone on disk too: a second recovery reports it clean.
  auto on_disk = ReadFile(wal);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk->size(), good);
}

TEST(PersistTest, CorruptSnapshotIsQuarantinedAndSlotRestartsEmpty) {
  TempDir dir;
  {
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(
        (*p)->PersistSnapshot(3, 1, 0, ConstByteSpan(Blob(500, 7)), {}).ok());
    ASSERT_TRUE((*p)->AppendUpdate(3, 1, ConstByteSpan(Blob(30, 8))).ok());
  }
  // Flip a header byte (the epoch). A flip inside the index is the
  // server's to catch: see ServerRecoveryTest below.
  const std::string snap = dir.path() + "/store-3.snap";
  auto bytes = ReadFile(snap);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[9] ^= 0x01;
  WriteFile(snap, *bytes);

  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->corrupt_snapshots, 1u);
  EXPECT_TRUE(report->stores.empty())
      << "the WAL applies on top of the lost base and must not replay";
  EXPECT_NE(access((snap + ".corrupt").c_str(), F_OK), -1)
      << "the bad file is set aside for forensics, not deleted";
  EXPECT_EQ(access(snap.c_str(), F_OK), -1);
}

TEST(PersistTest, StrayTmpFilesAreRemoved) {
  TempDir dir;
  WriteFile(dir.path() + "/store-0.snap.tmp", Blob(64, 1));
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->stores.empty());
  EXPECT_EQ(access((dir.path() + "/store-0.snap.tmp").c_str(), F_OK), -1);
}

// --------------------------------------------------------------------------
// The snapshot container: one header page, the page-aligned index, then
// the gate.
// --------------------------------------------------------------------------

TEST(PersistV2Test, SnapshotRoundTripsWithoutLoadingTheIndex) {
  TempDir dir;
  const Bytes index = Blob(10000, 21);
  const Bytes gate = Blob(300, 23);
  {
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*p)->PersistSnapshot(0, 3, 1, ConstByteSpan(index),
                                      ConstByteSpan(gate))
                    .ok());
  }
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->stores.size(), 1u);
  const auto& store = report->stores[0];
  EXPECT_EQ(store.store_id, 0u);
  EXPECT_TRUE(store.has_snapshot);
  EXPECT_EQ(store.kind, 1u);
  EXPECT_EQ(store.epoch, 3u);
  // O(1) recovery contract: the index is NOT loaded — the caller maps
  // [index_offset, index_offset + index_len) itself.
  EXPECT_EQ(store.snapshot_path, dir.path() + "/store-0.snap");
  EXPECT_EQ(store.index_offset, 4096u);
  EXPECT_EQ(store.index_len, index.size());
  EXPECT_EQ(store.gate_blob, gate);
  EXPECT_TRUE(store.updates.empty());
  EXPECT_EQ(report->corrupt_snapshots, 0u);
  EXPECT_EQ(IndexOf(store), index);
}

TEST(PersistV2Test, EmptyGateAndIndexRoundTrip) {
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->PersistSnapshot(0, 1, 0, {}, {}).ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_TRUE(report->stores[0].has_snapshot);
  EXPECT_EQ(report->stores[0].index_len, 0u);
  EXPECT_TRUE(report->stores[0].gate_blob.empty());
}

TEST(PersistV2Test, HostileHeaderMatrixQuarantinesCleanly) {
  // Each corruption of the v2 header page (or the container's framing)
  // must quarantine the slot — never crash, never serve a torn base.
  struct Case {
    const char* name;
    void (*corrupt)(Bytes&);
  };
  const Case cases[] = {
      {"flipped magic", [](Bytes& f) { f[0] ^= 0xff; }},
      {"header crc mismatch", [](Bytes& f) { f[9] ^= 0x01; }},  // epoch
      {"crc field itself", [](Bytes& f) { f[53] ^= 0x01; }},
      {"gate crc mismatch", [](Bytes& f) { f.back() ^= 0x01; }},
      {"truncated to header page", [](Bytes& f) { f.resize(4096); }},
      {"truncated mid-index",
       [](Bytes& f) {
         // The guard is always true (the index alone is ~9 KB) but lets
         // the compiler see the new size cannot wrap below zero.
         if (f.size() > 4097) f.resize(f.size() - 4097);
       }},
      {"trailing garbage", [](Bytes& f) { f.resize(f.size() + 512, 0); }},
  };
  for (const Case& c : cases) {
    TempDir dir;
    {
      auto p = StorePersistence::Open(dir.path());
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE((*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(9000, 5)),
                                        ConstByteSpan(Blob(100, 6)))
                      .ok());
    }
    const std::string snap = dir.path() + "/store-0.snap";
    auto bytes = ReadFile(snap);
    ASSERT_TRUE(bytes.ok());
    c.corrupt(*bytes);
    WriteFile(snap, *bytes);
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    auto report = (*p)->Recover();
    ASSERT_TRUE(report.ok()) << c.name;
    EXPECT_EQ(report->corrupt_snapshots, 1u) << c.name;
    EXPECT_TRUE(report->stores.empty()) << c.name;
    EXPECT_NE(access((snap + ".corrupt").c_str(), F_OK), -1) << c.name;
  }
}

TEST(PersistV2Test, TruncatedBelowOnePageIsQuarantined) {
  TempDir dir;
  {
    auto p = StorePersistence::Open(dir.path());
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(
        (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(500, 5)), {}).ok());
  }
  const std::string snap = dir.path() + "/store-0.snap";
  auto bytes = ReadFile(snap);
  ASSERT_TRUE(bytes.ok());
  bytes->resize(100);  // shorter than the header page, longer than a magic
  WriteFile(snap, *bytes);
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  auto report = (*p)->Recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->corrupt_snapshots, 1u);
  EXPECT_TRUE(report->stores.empty());
}

TEST(PersistTest, InjectedTornSnapshotWriteLeavesOldSnapshotIntact) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(128, 1)), {}).ok());

  failpoint::Set("persist_snapshot_write", "torn*1");
  EXPECT_FALSE(
      (*p)->PersistSnapshot(0, 2, 0, ConstByteSpan(Blob(128, 2)), {}).ok());
  failpoint::ClearAll();

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_EQ(report->stores[0].epoch, 1u);
  EXPECT_EQ(IndexOf(report->stores[0]), Blob(128, 1))
      << "a failed snapshot write must leave the previous epoch durable";
}

TEST(PersistTest, InjectedTornWalAppendRollsBackBeforeLaterAppends) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 1))).ok());
  failpoint::Set("persist_wal_append", "torn*1");
  EXPECT_FALSE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 2))).ok());
  failpoint::ClearAll();
  // The torn record must be rolled back at append time: recovery stops at
  // the first bad record, so an acked append landing after leftover
  // garbage would be silently dropped.
  ASSERT_TRUE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 3))).ok());

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  ASSERT_EQ(report->stores[0].updates.size(), 2u);
  EXPECT_EQ(report->stores[0].updates[0], Blob(80, 1));
  EXPECT_EQ(report->stores[0].updates[1], Blob(80, 3))
      << "the acked append after the failed one must survive recovery";
  EXPECT_EQ(report->wal_bytes_truncated, 0u)
      << "the torn record must already be gone from disk";
}

TEST(PersistTest, InjectedWalFsyncFailureRollsBackTheRecord) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  // Unlike a torn write, a failed fsync leaves a fully-written record in
  // the file; replaying it would apply a nacked batch.
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 1))).ok());
  failpoint::Set("persist_wal_fsync", "error*1");
  EXPECT_FALSE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 2))).ok());
  failpoint::ClearAll();
  ASSERT_TRUE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 3))).ok());

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  ASSERT_EQ(report->stores[0].updates.size(), 2u);
  EXPECT_EQ(report->stores[0].updates[0], Blob(80, 1));
  EXPECT_EQ(report->stores[0].updates[1], Blob(80, 3))
      << "the nacked batch's record must not replay";
}

TEST(PersistTest, UnrollbackableTornAppendPoisonsTheSlot) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 1))).ok());
  failpoint::Set("persist_wal_append", "torn*1");
  failpoint::Set("persist_wal_rollback", "error*1");
  EXPECT_FALSE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 2))).ok());
  failpoint::ClearAll();
  // The torn record could not be removed, so the slot must refuse further
  // appends — acking one would park it behind the garbage.
  EXPECT_FALSE((*p)->AppendUpdate(0, 0, ConstByteSpan(Blob(80, 3))).ok());
  // A clean snapshot truncates the log and re-enables appends.
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(64, 4)), {}).ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(80, 5))).ok());

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_EQ(IndexOf(report->stores[0]), Blob(64, 4));
  ASSERT_EQ(report->stores[0].updates.size(), 1u);
  EXPECT_EQ(report->stores[0].updates[0], Blob(80, 5));
}

TEST(PersistTest, DirFsyncFailureAfterRenameStillCommitsTheSnapshot) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  // The rename is the commit point: a recovery loads the new snapshot, so
  // nacking the Setup would leave the caller acking updates under an
  // epoch recovery skips as stale.
  TempDir dir;
  auto p = StorePersistence::Open(dir.path());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 1, 0, ConstByteSpan(Blob(64, 1)), {}).ok());
  failpoint::Set("persist_dir_fsync", "error*1");
  EXPECT_TRUE(
      (*p)->PersistSnapshot(0, 2, 0, ConstByteSpan(Blob(64, 2)), {}).ok());
  failpoint::ClearAll();
  // Which snapshot a crash would resurrect is ambiguous until the next
  // clean snapshot, so no update may be acked under either epoch.
  EXPECT_FALSE((*p)->AppendUpdate(0, 2, ConstByteSpan(Blob(40, 3))).ok());
  ASSERT_TRUE(
      (*p)->PersistSnapshot(0, 3, 0, ConstByteSpan(Blob(64, 4)), {}).ok());
  ASSERT_TRUE((*p)->AppendUpdate(0, 3, ConstByteSpan(Blob(40, 5))).ok());

  auto reopened = StorePersistence::Open(dir.path());
  ASSERT_TRUE(reopened.ok());
  auto report = (*reopened)->Recover();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->stores.size(), 1u);
  EXPECT_EQ(report->stores[0].epoch, 3u);
  EXPECT_EQ(IndexOf(report->stores[0]), Blob(64, 4));
  ASSERT_EQ(report->stores[0].updates.size(), 1u);
  EXPECT_EQ(report->stores[0].updates[0], Blob(40, 5));
}

TEST(ServerRecoveryTest, UpdateBuiltStoreSurvivesRestart) {
  // An update-built dictionary (WAL only, no snapshot) must come back:
  // kill the first server after acked updates, boot a second from the
  // same directory, and read the store stats.
  TempDir dir;
  ServerOptions options;
  options.port = 0;
  options.data_dir = dir.path();
  options.shards = 2;

  std::vector<std::pair<Label, Bytes>> entries;
  Label label;
  label.fill(0x21);
  entries.emplace_back(label, Bytes(32, 0x05));
  Label label2;
  label2.fill(0x22);
  entries.emplace_back(label2, Bytes(32, 0x06));

  {
    EmmServer server(options);
    ASSERT_TRUE(server.Listen().ok());
    std::thread serve([&server] { EXPECT_TRUE(server.Serve().ok()); });
    EmmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    auto resp = client.Update(entries);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->entries, 2u);
    server.Shutdown();
    serve.join();
  }

  EmmServer restarted(options);
  ASSERT_TRUE(restarted.Listen().ok());
  EXPECT_EQ(restarted.recovery_stats().stores_recovered, 1u);
  EXPECT_EQ(restarted.recovery_stats().wal_records_applied, 1u);
  std::thread serve([&restarted] { EXPECT_TRUE(restarted.Serve().ok()); });
  EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", restarted.port()).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->entries, 2u);
  restarted.Shutdown();
  serve.join();
}

std::vector<std::pair<Label, Bytes>> OneEntryBatch(uint8_t fill) {
  Label label;
  label.fill(fill);
  return {{label, Bytes(32, fill)}};
}

TEST(ServerRecoveryTest, FirstUpdateWaitsForTheWalEntryToBeDurable) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DRSSE_FAILPOINTS=ON";
  }
  // A WAL-only slot creates its log on the first Update. Until the data
  // dir is fsync'd, a power cut can drop the new file's entry and every
  // batch acked into it, so a failed directory fsync must nack the batch.
  TempDir dir;
  ServerOptions options;
  options.data_dir = dir.path();
  {
    EmmServer server(options);
    ASSERT_TRUE(server.Listen().ok());
    std::thread serve([&server] { EXPECT_TRUE(server.Serve().ok()); });
    EmmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    failpoint::Set("persist_wal_dir_fsync", "error*1");
    EXPECT_FALSE(client.Update(OneEntryBatch(0x41)).ok());
    failpoint::ClearAll();
    EXPECT_EQ(server.EntryCount(), 0u) << "a nacked batch must not apply";
    auto acked = client.Update(OneEntryBatch(0x42));
    ASSERT_TRUE(acked.ok()) << acked.status().ToString();
    EXPECT_EQ(acked->entries, 1u);
    server.Shutdown();
    serve.join();
  }

  EmmServer restarted(options);
  ASSERT_TRUE(restarted.Listen().ok());
  EXPECT_EQ(restarted.recovery_stats().wal_records_applied, 1u);
  EXPECT_EQ(restarted.EntryCount(), 1u);
  auto wal = ReadFile(dir.path() + "/store-0.wal");
  ASSERT_TRUE(wal.ok());
  std::vector<StorePersistence::WalRecord> records;
  StorePersistence::DecodeWalRecords(*wal, records);
  ASSERT_EQ(records.size(), 1u);
  auto update = UpdateRequest::Decode(records[0].payload);
  ASSERT_TRUE(update.ok());
  ASSERT_EQ(update->entries.size(), 1u);
  EXPECT_EQ(update->entries[0].first, OneEntryBatch(0x42)[0].first)
      << "only the acked batch may be on disk";
}

/// Ships two real slots into `dir` and crashes: slot 0 an encrypted
/// dictionary with one logged Update on top, slot 1 a PB filter tree.
void WriteTwoSlotDataDir(const std::string& dir) {
  Rng rng(5);
  const Dataset data = GenerateUniform(/*n=*/40, /*domain_size=*/32, rng);
  std::unique_ptr<RangeScheme> emm = MakeScheme(SchemeId::kLogarithmicBrc);
  std::unique_ptr<RangeScheme> tree = pb::MakePbScheme();
  ASSERT_TRUE(emm->Build(data).ok());
  ASSERT_TRUE(tree->Build(data).ok());
  Result<ServerSetup> setup = emm->ExportServerSetup();
  Result<ServerSetup> tree_setup = tree->ExportServerSetup();
  ASSERT_TRUE(setup.ok() && tree_setup.ok());
  ASSERT_EQ(tree_setup->stores.size(), 1u);
  tree_setup->stores[0].store = 1;
  setup->stores.push_back(tree_setup->stores[0]);

  ServerOptions options;
  options.data_dir = dir;
  EmmServer server(options);
  ASSERT_TRUE(server.Listen().ok());
  std::thread serve([&server] { EXPECT_TRUE(server.Serve().ok()); });
  EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const Status installed = InstallServerSetup(client, *setup);
  EXPECT_TRUE(installed.ok()) << installed.ToString();
  EXPECT_TRUE(client.Update(OneEntryBatch(0x23)).ok());
  server.Shutdown();
  serve.join();
}

/// Flips one byte of `dir`'s store-<slot>.snap at `offset(file)`.
void FlipSnapshotByte(const std::string& dir, uint32_t slot,
                      size_t (*offset)(const Bytes&)) {
  const std::string snap = dir + "/store-" + std::to_string(slot) + ".snap";
  auto bytes = ReadFile(snap);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[offset(*bytes)] ^= 0x01;
  WriteFile(snap, *bytes);
}

TEST(ServerRecoveryTest, UndeserializableSnapshotIsQuarantined) {
  // A snapshot whose container checksums hold but whose index fails its
  // own checks or will not deserialize must be set aside exactly like a
  // container checksum failure, and only that slot: left in place it
  // would re-fail and re-count on every boot, and refusing to boot would
  // take every other slot down with it.
  struct Case {
    const char* name;
    uint32_t slot;
    size_t other_slots;
  };
  const Case cases[] = {
      {"garbage index", 0, 0},
      {"encrypted-dictionary arena byte", 0, 1},
      {"filter-tree blob byte", 1, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir dir;
    if (c.other_slots == 0) {
      auto p = StorePersistence::Open(dir.path());
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE((*p)->PersistSnapshot(
                          0, 1, static_cast<uint8_t>(rsse::StoreKind::kEmm),
                          ConstByteSpan(Blob(100, 7)), {})
                      .ok());
      ASSERT_TRUE((*p)->AppendUpdate(0, 1, ConstByteSpan(Blob(30, 8))).ok());
    } else {
      ASSERT_NO_FATAL_FAILURE(WriteTwoSlotDataDir(dir.path()));
      if (c.slot == 0) {
        // The index is a v2 store image at file offset 4096; shard 0's
        // arena offset is at image offset 64, in the first section-table
        // entry.
        FlipSnapshotByte(dir.path(), 0, [](const Bytes& f) {
          return static_cast<size_t>(4096 + LoadU64Le(f.data() + 4096 + 64));
        });
      } else {
        // The container header's index_len sits at [25, 33).
        FlipSnapshotByte(dir.path(), 1, [](const Bytes& f) {
          return static_cast<size_t>(4096 + ReadUint64(f, 25) / 2);
        });
      }
    }
    ServerOptions options;
    options.data_dir = dir.path();
    {
      EmmServer server(options);
      ASSERT_TRUE(server.Listen().ok());
      EXPECT_EQ(server.recovery_stats().corrupt_snapshots_dropped, 1u);
      EXPECT_EQ(server.recovery_stats().stores_recovered, c.other_slots);
      for (const auto& mem : server.StoreMemory()) {
        if (mem.store_id == c.slot) {
          EXPECT_EQ(mem.snapshot_format, 0u);
        } else {
          EXPECT_EQ(mem.snapshot_format, 2u) << "slot " << mem.store_id;
          EXPECT_GT(mem.mapped_bytes + mem.heap_bytes, 0u)
              << "slot " << mem.store_id << " must keep serving";
        }
      }
    }
    const std::string slot_path =
        dir.path() + "/store-" + std::to_string(c.slot);
    EXPECT_EQ(access((slot_path + ".snap").c_str(), F_OK), -1);
    EXPECT_NE(access((slot_path + ".snap.corrupt").c_str(), F_OK), -1)
        << "the bad file is set aside for forensics, not deleted";
    auto wal = ReadFile(slot_path + ".wal");
    ASSERT_TRUE(wal.ok());
    EXPECT_TRUE(wal->empty())
        << "the WAL applied on top of the lost base and must not replay";

    // The second boot starts clean instead of re-counting the same file.
    EmmServer second(options);
    ASSERT_TRUE(second.Listen().ok());
    EXPECT_EQ(second.recovery_stats().corrupt_snapshots_dropped, 0u);
    EXPECT_EQ(second.recovery_stats().stores_recovered, c.other_slots);
  }
}

}  // namespace
}  // namespace rsse::server
