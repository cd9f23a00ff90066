// Kill-and-restart conformance: for every scheme in the family, host its
// exported stores on a --data-dir server, destroy the server without any
// drain (the in-process stand-in for SIGKILL — nothing is flushed beyond
// what each request already fsync'd), boot a fresh server from the same
// directory, and require the remote id sets to equal the local backend's
// for every range. Also covers recovery with injected torn snapshots and
// WAL tails: the restarted server serves exactly the last durable prefix.

#include <algorithm>
#include <cstdio>
#include <dirent.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/rng.h"
#include "data/generators.h"
#include "pb/pb_scheme.h"
#include "rsse/factory.h"
#include "rsse/scheme.h"
#include "server/client.h"
#include "server/persist.h"
#include "server/remote_backend.h"
#include "server/server.h"
#include "server/wire.h"

namespace rsse {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "rsse_restart_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    EXPECT_NE(mkdtemp(buf.data()), nullptr);
    path_ = buf.data();
  }

  ~TempDir() {
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

void WriteFile(const std::string& path, const Bytes& data) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fwrite(data.data(), 1, data.size(), f), data.size());
  fclose(f);
}

Bytes ReadFile(const std::string& path) {
  Bytes out;
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  uint8_t chunk[4096];
  size_t n;
  while ((n = fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out.insert(out.end(), chunk, chunk + n);
  }
  fclose(f);
  return out;
}

class LoopbackServer {
 public:
  explicit LoopbackServer(server::ServerOptions options) : server_(options) {
    Status s = server_.Listen();
    EXPECT_TRUE(s.ok()) << s.ToString();
    thread_ = std::thread([this] {
      Status serve = server_.Serve();
      EXPECT_TRUE(serve.ok()) << serve.ToString();
    });
  }

  /// Graceful drain (the SIGTERM path): folds mapped-store deltas. The
  /// destructor without this is the crash path — nothing beyond the
  /// per-request fsyncs survives.
  void Drain() {
    server_.BeginDrain();
    if (thread_.joinable()) thread_.join();
  }

  ~LoopbackServer() {
    server_.Shutdown();
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return server_.port(); }
  const server::EmmServer::RecoveryStats& recovery_stats() const {
    return server_.recovery_stats();
  }
  std::vector<server::EmmServer::StoreMemoryInfo> store_memory() const {
    return server_.StoreMemory();
  }

 private:
  server::EmmServer server_;
  std::thread thread_;
};

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::unique_ptr<RangeScheme> Make(SchemeId id) {
  if (id == SchemeId::kPb) return pb::MakePbScheme(/*rng_seed=*/11);
  return MakeScheme(id, /*rng_seed=*/11);
}

std::vector<SchemeId> AllServableSchemeIds() {
  std::vector<SchemeId> ids = AllSchemeIds();
  ids.push_back(SchemeId::kPb);
  ids.push_back(SchemeId::kNaivePerValue);
  return ids;
}

std::string RestartParamName(const ::testing::TestParamInfo<SchemeId>& info) {
  std::string name = SchemeName(info.param);
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class RestartConformanceTest : public ::testing::TestWithParam<SchemeId> {};

TEST_P(RestartConformanceTest, RestartedServerAnswersLikeLocal) {
  const SchemeId scheme_id = GetParam();
  Rng rng(17);
  Dataset data = GenerateUspsLike(/*n=*/60, /*domain_size=*/32, rng);
  std::unique_ptr<RangeScheme> scheme = Make(scheme_id);
  ASSERT_NE(scheme, nullptr);
  ASSERT_TRUE(scheme->Build(data).ok());
  Result<ServerSetup> setup = scheme->ExportServerSetup();
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();

  TempDir dir;
  server::ServerOptions options;
  options.port = 0;
  options.data_dir = dir.path();

  // Generation 1: install the stores, answer one query, die abruptly
  // (destructor path — nothing beyond the per-request fsyncs survives).
  {
    LoopbackServer loopback(options);
    server::EmmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
    Status installed = server::InstallServerSetup(client, *setup);
    ASSERT_TRUE(installed.ok()) << installed.ToString();
    server::RemoteBackend remote(client);
    Result<QueryResult> warm = scheme->QueryVia(remote, Range{0, 31});
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }

  // Generation 2: nothing is re-shipped; the store table must come back
  // from disk alone.
  LoopbackServer restarted(options);
  EXPECT_EQ(restarted.recovery_stats().stores_recovered,
            setup->stores.size());
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", restarted.port()).ok());
  server::RemoteBackend remote(client);

  // Every scheme's stores come back from their snapshots; encrypted
  // dictionaries serve straight off the mapping (filter trees from heap).
  uint64_t mapped_total = 0;
  for (const auto& mem : restarted.store_memory()) {
    EXPECT_EQ(mem.snapshot_format, 2u) << "store " << mem.store_id;
    mapped_total += mem.mapped_bytes;
  }
  if (scheme_id != SchemeId::kPb) {
    EXPECT_GT(mapped_total, 0u) << "a restarted store served from heap";
  }

  for (uint64_t lo = 0; lo < 32; lo += 5) {
    for (uint64_t hi = lo; hi < 32; hi += 6) {
      const Range r{lo, hi};
      Result<QueryResult> local = scheme->Query(r);
      ASSERT_TRUE(local.ok()) << local.status().ToString();
      Result<QueryResult> wire = scheme->QueryVia(remote, r);
      ASSERT_TRUE(wire.ok()) << wire.status().ToString();
      EXPECT_EQ(Sorted(wire->ids), Sorted(local->ids))
          << SchemeName(scheme_id) << " range [" << lo << "," << hi << "]";
      EXPECT_EQ(wire->rounds, local->rounds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryScheme, RestartConformanceTest,
                         ::testing::ValuesIn(AllServableSchemeIds()),
                         RestartParamName);

TEST(RestartUpdateTest, AckedUpdatesSurviveUncleanRestart) {
  // Updates ride the WAL, not the snapshot: an acked batch must be
  // answerable after an unclean restart, and the entry count must match
  // exactly (no lost and no doubled batches).
  TempDir dir;
  server::ServerOptions options;
  options.port = 0;
  options.data_dir = dir.path();
  options.shards = 2;

  constexpr int kBatches = 5;
  {
    LoopbackServer loopback(options);
    server::EmmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
    for (int b = 0; b < kBatches; ++b) {
      std::vector<std::pair<Label, Bytes>> entries;
      Label label;
      label.fill(static_cast<uint8_t>(0x30 + b));
      entries.emplace_back(label, Bytes(24, static_cast<uint8_t>(b)));
      auto resp = client.Update(entries);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    }
  }

  LoopbackServer restarted(options);
  EXPECT_EQ(restarted.recovery_stats().wal_records_applied,
            static_cast<size_t>(kBatches));
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", restarted.port()).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->entries, static_cast<uint64_t>(kBatches));
}

TEST(RestartUpdateTest, SnapshotPlusWalComposeAcrossRestart) {
  // SetupStore then Update then crash: recovery must load the snapshot
  // and replay the WAL on top, answering both old and new keywords.
  Rng rng(23);
  Dataset data = GenerateUniform(/*n=*/40, /*domain_size=*/32, rng);
  std::unique_ptr<RangeScheme> scheme = Make(SchemeId::kLogarithmicBrc);
  ASSERT_TRUE(scheme->Build(data).ok());
  Result<ServerSetup> setup = scheme->ExportServerSetup();
  ASSERT_TRUE(setup.ok());

  TempDir dir;
  server::ServerOptions options;
  options.port = 0;
  options.data_dir = dir.path();

  uint64_t entries_after_update = 0;
  {
    LoopbackServer loopback(options);
    server::EmmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
    ASSERT_TRUE(server::InstallServerSetup(client, *setup).ok());
    std::vector<std::pair<Label, Bytes>> entries;
    Label label;
    label.fill(0x77);
    entries.emplace_back(label, Bytes(40, 0x09));
    auto resp = client.Update(entries);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    entries_after_update = resp->entries;
  }

  LoopbackServer restarted(options);
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", restarted.port()).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entries, entries_after_update);

  // The range protocol still answers exactly from the recovered base.
  server::RemoteBackend remote(client);
  const Range r{3, 29};
  Result<QueryResult> local = scheme->Query(r);
  ASSERT_TRUE(local.ok());
  Result<QueryResult> wire = scheme->QueryVia(remote, r);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(Sorted(wire->ids), Sorted(local->ids));
}

TEST(RestartMmapTest, V1SnapshotFailsListenAndStaysUntouched) {
  // The v1 container (the blobs under one whole-file CRC) is no longer
  // read. Booting over one must fail loudly, name the file, and leave it
  // and its WAL exactly as they were, so the operator can still migrate.
  Rng rng(29);
  Dataset data = GenerateUniform(/*n=*/40, /*domain_size=*/32, rng);
  std::unique_ptr<RangeScheme> scheme = Make(SchemeId::kLogarithmicBrc);
  ASSERT_TRUE(scheme->Build(data).ok());
  Result<ServerSetup> setup = scheme->ExportServerSetup();
  ASSERT_TRUE(setup.ok());
  const Bytes& index = setup->stores[0].index_blob;

  // v1 layout, big-endian: "RSSESNP1", kind, epoch, index_len, gate_len,
  // the index, the gate (none), then a CRC32C over everything before it.
  Bytes snapshot;
  AppendUint64(snapshot, 0x52535345534e5031ull);
  AppendByte(snapshot, static_cast<uint8_t>(StoreKind::kEmm));
  AppendUint64(snapshot, /*epoch=*/1);
  AppendUint64(snapshot, index.size());
  AppendUint64(snapshot, /*gate_len=*/0);
  Append(snapshot, index);
  AppendUint32(snapshot, Crc32c(snapshot.data(), snapshot.size()));
  server::UpdateRequest update;
  Label label;
  label.fill(0x66);
  update.entries.emplace_back(label, Bytes(40, 0x05));
  const Bytes payload = update.Encode();
  Bytes wal;
  server::StorePersistence::EncodeWalRecord(/*epoch=*/1,
                                            ConstByteSpan(payload), wal);

  TempDir dir;
  const std::string snap_path = dir.path() + "/store-0.snap";
  const std::string wal_path = dir.path() + "/store-0.wal";
  WriteFile(snap_path, snapshot);
  WriteFile(wal_path, wal);

  server::ServerOptions options;
  options.data_dir = dir.path();
  server::EmmServer server(options);
  const Status listened = server.Listen();
  ASSERT_FALSE(listened.ok());
  EXPECT_NE(listened.message().find("store-0.snap"), std::string::npos)
      << listened.ToString();
  EXPECT_EQ(ReadFile(snap_path), snapshot);
  EXPECT_EQ(ReadFile(wal_path), wal);
}

TEST(RestartMmapTest, CleanDrainFoldsMappedDeltasIntoFreshSnapshot) {
  // Live updates on a mapped store: the touched shards ride the WAL until
  // a *clean* drain folds them back into a snapshot, so the successor maps
  // it again with zero WAL replay.
  Rng rng(31);
  Dataset data = GenerateUniform(/*n=*/40, /*domain_size=*/32, rng);
  std::unique_ptr<RangeScheme> scheme = Make(SchemeId::kConstantBrc);
  ASSERT_TRUE(scheme->Build(data).ok());
  Result<ServerSetup> setup = scheme->ExportServerSetup();
  ASSERT_TRUE(setup.ok());

  TempDir dir;
  server::ServerOptions options;
  options.port = 0;
  options.data_dir = dir.path();

  uint64_t entries_after_update = 0;
  {
    LoopbackServer loopback(options);
    server::EmmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
    ASSERT_TRUE(server::InstallServerSetup(client, *setup).ok());
    std::vector<std::pair<Label, Bytes>> entries;
    Label label;
    label.fill(0x55);
    entries.emplace_back(label, Bytes(40, 0x04));
    auto resp = client.Update(entries);
    ASSERT_TRUE(resp.ok());
    entries_after_update = resp->entries;
    client.Close();
    loopback.Drain();  // the graceful path: fold happens here
  }

  LoopbackServer restarted(options);
  EXPECT_EQ(restarted.recovery_stats().wal_records_applied, 0u)
      << "the drain fold must truncate the WAL";
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", restarted.port()).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entries, entries_after_update);
  EXPECT_EQ(stats->snapshot_format, 2u);
  EXPECT_GT(stats->mapped_bytes, 0u);
  EXPECT_EQ(stats->heap_bytes, 0u)
      << "a folded store must serve fully off the mapping";
  server::RemoteBackend remote(client);
  const Range r{0, 31};
  Result<QueryResult> local = scheme->Query(r);
  ASSERT_TRUE(local.ok());
  Result<QueryResult> wire = scheme->QueryVia(remote, r);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(Sorted(wire->ids), Sorted(local->ids));
}

}  // namespace
}  // namespace rsse
