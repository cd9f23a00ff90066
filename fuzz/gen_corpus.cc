/// Regenerates the committed seed corpora under fuzz/corpus/<target>/.
/// Every seed is built with the project's own encoders, so the corpora
/// start inside the formats' valid envelope (coverage-guided mutation gets
/// a running start), plus deterministic mutations — truncations, byte
/// flips, oversized length fields, the retired type-1 frame — so the
/// replay smoke test also pins the rejection paths. Deterministic by construction: running this tool twice
/// produces byte-identical corpora, keeping regeneration diffs reviewable.
///
///   gen_corpus [output_root]   (default: fuzz/corpus)
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "server/persist.h"
#include "server/wire.h"
#include "shard/sharded_emm.h"

using rsse::Bytes;
using rsse::Label;
using rsse::shard::ShardedEmm;
using namespace rsse::server;

namespace {

std::filesystem::path g_root;
int g_written = 0;

void WriteSeed(const std::string& target, const std::string& name,
               const Bytes& data) {
  const std::filesystem::path dir = g_root / target;
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) {
    std::fprintf(stderr, "gen_corpus: failed writing %s/%s\n", target.c_str(),
                 name.c_str());
    std::exit(1);
  }
  ++g_written;
}

Bytes Truncated(const Bytes& b, size_t len) {
  return Bytes(b.begin(), b.begin() + std::min(len, b.size()));
}

Bytes Flipped(Bytes b, size_t offset) {
  if (offset < b.size()) b[offset] ^= 0xff;
  return b;
}

/// The standard hostile variants of one valid seed: a handful of prefix
/// truncations plus byte flips spread across the seed. These are the
/// committed rejection inputs each target must survive.
void WriteMutations(const std::string& target, const std::string& stem,
                    const Bytes& valid) {
  const size_t cuts[] = {0, 1, 3, 4, 7, valid.size() / 2,
                         valid.size() > 0 ? valid.size() - 1 : 0};
  int n = 0;
  for (const size_t cut : cuts) {
    if (cut >= valid.size()) continue;
    WriteSeed(target, stem + "-trunc-" + std::to_string(n++),
              Truncated(valid, cut));
  }
  n = 0;
  for (const size_t at : {size_t{0}, size_t{4}, size_t{5}, size_t{9},
                          valid.size() / 3, 2 * valid.size() / 3}) {
    if (at >= valid.size()) continue;
    WriteSeed(target, stem + "-flip-" + std::to_string(n++),
              Flipped(valid, at));
  }
}

/// The retired type-1 (legacy Setup) frame around a store blob, byte for
/// byte as the old encoder wrote it: [u32 len][u8 version][u8 1][u64
/// blob length][blob]. The framer must reject it as an unknown type.
Bytes RetiredSetupFrame(const Bytes& index_blob) {
  Bytes out;
  rsse::AppendUint32(out, static_cast<uint32_t>(2 + 8 + index_blob.size()));
  rsse::AppendByte(out, kWireVersion);
  rsse::AppendByte(out, 1);
  rsse::AppendUint64(out, index_blob.size());
  rsse::Append(out, index_blob);
  return out;
}

Bytes MustFrame(FrameType type, const Bytes& payload) {
  Bytes out;
  if (!EncodeFrame(type, payload, out)) {
    std::fprintf(stderr, "gen_corpus: EncodeFrame failed\n");
    std::exit(1);
  }
  return out;
}

Label MakeLabel(uint8_t fill) {
  Label l{};
  l.fill(fill);
  return l;
}

/// A small populated store shared by the image/blob/wire seeds.
ShardedEmm MakeStore() {
  ShardedEmm emm = ShardedEmm::WithShards(2);
  for (uint8_t i = 0; i < 8; ++i) {
    const Bytes value(24 + i, static_cast<uint8_t>(0xA0 + i));
    emm.Insert(MakeLabel(i), value);
  }
  return emm;
}

void GenWire(const ShardedEmm& emm) {
  SearchBatchRequest batch;
  for (uint32_t q = 0; q < 2; ++q) {
    WireQuery query;
    query.query_id = 100 + q;
    for (uint8_t lvl = 0; lvl < 3; ++lvl) {
      query.tokens.push_back(
          WireToken{lvl, MakeLabel(static_cast<uint8_t>(0x40 + lvl))});
    }
    batch.queries.push_back(std::move(query));
  }

  SearchResult result;
  result.query_id = 100;
  result.ids = {1, 2, 3, 1ull << 40};

  SearchDone done;
  done.query_count = 2;
  done.tokens_received = 6;
  done.unique_nodes_expanded = 4;
  done.leaves_searched = 16;
  done.search_nanos = 123456;
  done.skipped_decrypts = 2;

  UpdateRequest update;
  update.entries.emplace_back(MakeLabel(0x11), Bytes{1, 2, 3, 4});
  update.entries.emplace_back(MakeLabel(0x22), Bytes(40, 0xEE));

  SetupStoreRequest setup_store;
  setup_store.store_id = 1;
  setup_store.kind = 0;
  setup_store.index_blob = emm.SerializeV2();
  setup_store.gate_blob = Bytes{0xDE, 0xAD};

  SearchKeywordRequest keyword;
  keyword.store_id = 1;
  SearchKeywordRequest::Query kq;
  kq.query_id = 7;
  kq.tokens.push_back(WireKeywordToken{0, Bytes(16, 0x51), Bytes(16, 0x52)});
  kq.tokens.push_back(WireKeywordToken{1, Bytes(16, 0x53), Bytes{}});
  keyword.queries.push_back(std::move(kq));

  SearchPayloadResult payloads;
  payloads.query_id = 7;
  payloads.payloads = {Bytes{9, 8, 7}, Bytes(24, 0x31)};

  ErrorResponse error;
  error.message = "no index hosted";

  StatsResponse stats;
  stats.entries = 8;
  stats.size_bytes = 4096;
  stats.shards = 2;
  stats.batches_served = 3;
  stats.mapped_bytes = 4096;
  stats.snapshot_format = 2;

  const std::pair<const char*, Bytes> frames[] = {
      {"setup-req", RetiredSetupFrame(emm.Serialize())},
      {"setup-resp",
       MustFrame(FrameType::kSetupResp, SetupResponse{2, 8}.Encode())},
      {"search-batch", MustFrame(FrameType::kSearchBatchReq, batch.Encode())},
      {"search-result", MustFrame(FrameType::kSearchResult, result.Encode())},
      {"search-done", MustFrame(FrameType::kSearchDone, done.Encode())},
      {"update-req", MustFrame(FrameType::kUpdateReq, update.Encode())},
      {"update-resp",
       MustFrame(FrameType::kUpdateResp, UpdateResponse{2}.Encode())},
      {"stats-req", MustFrame(FrameType::kStatsReq, Bytes{})},
      {"stats-resp", MustFrame(FrameType::kStatsResp, stats.Encode())},
      {"error", MustFrame(FrameType::kError, error.Encode())},
      {"setup-store", MustFrame(FrameType::kSetupStoreReq,
                                setup_store.Encode())},
      {"search-keyword",
       MustFrame(FrameType::kSearchKeywordReq, keyword.Encode())},
      {"search-payload",
       MustFrame(FrameType::kSearchPayload, payloads.Encode())},
      {"error-draining", MustFrame(FrameType::kErrorDraining, error.Encode())},
  };

  Bytes stream;
  for (const auto& [name, frame] : frames) {
    WriteSeed("wire", std::string("frame-") + name, frame);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  WriteSeed("wire", "frame-stream", stream);
  WriteMutations("wire", "frame-search-batch",
                 MustFrame(FrameType::kSearchBatchReq, batch.Encode()));
  WriteMutations("wire", "frame-update",
                 MustFrame(FrameType::kUpdateReq, update.Encode()));
  // A length prefix promising ~1 GiB with 8 bytes behind it: must parse as
  // kNeedMore/kMalformed without allocating what it promises.
  WriteSeed("wire", "huge-length",
            Bytes{0x3f, 0xff, 0xff, 0xff, 0x02, 0x03, 0x00, 0x00});
}

void GenStoreImage(const ShardedEmm& emm) {
  const Bytes image = emm.SerializeV2(/*kind=*/0, /*epoch=*/7);
  WriteSeed("store_image", "valid-v2", image);
  const Bytes empty_image =
      ShardedEmm::WithShards(1).SerializeV2(/*kind=*/0, /*epoch=*/1);
  WriteSeed("store_image", "valid-v2-empty", empty_image);
  WriteMutations("store_image", "v2", image);
  // Flips inside the section table / shard sections, past the header page.
  for (const size_t at : {size_t{64}, size_t{4096}, size_t{4200}}) {
    if (at < image.size()) {
      WriteSeed("store_image", "v2-deep-flip-" + std::to_string(at),
                Flipped(image, at));
    }
  }
}

void GenWal() {
  UpdateRequest update;
  update.entries.emplace_back(MakeLabel(0x77), Bytes(12, 0x55));

  Bytes log;
  for (uint64_t epoch : {3ull, 3ull, 4ull}) {
    StorePersistence::EncodeWalRecord(epoch, update.Encode(), log);
  }
  WriteSeed("wal", "valid-log", log);
  // The canonical crash artifact: a torn final record.
  WriteSeed("wal", "torn-tail", Truncated(log, log.size() - 5));
  WriteMutations("wal", "log", log);
  // CRC-valid framing around a non-UpdateRequest payload: replay must
  // reject at the typed-decode stage, not before.
  Bytes junk_payload_log;
  StorePersistence::EncodeWalRecord(9, Bytes{0xff, 0xff, 0xff, 0xff, 0x00},
                                    junk_payload_log);
  WriteSeed("wal", "junk-payload", junk_payload_log);
}

void GenShardBlob(const ShardedEmm& emm) {
  const Bytes blob = emm.Serialize();
  WriteSeed("shard_blob", "valid-v1", blob);
  WriteSeed("shard_blob", "valid-v1-empty", ShardedEmm::WithShards(1).Serialize());
  WriteMutations("shard_blob", "v1", blob);
  // A v2 image fed to the shipped-blob entry point (a snapshot's image
  // passed where LoadServableIndex expects a shipped blob): must be a
  // clean INVALID_ARGUMENT.
  WriteSeed("shard_blob", "v2-image-miskind", emm.SerializeV2());
}

}  // namespace

int main(int argc, char** argv) {
  g_root = argc > 1 ? argv[1] : "fuzz/corpus";
  const ShardedEmm emm = MakeStore();
  GenWire(emm);
  GenStoreImage(emm);
  GenWal();
  GenShardBlob(emm);
  std::printf("gen_corpus: wrote %d seed(s) under %s\n", g_written,
              g_root.string().c_str());
  return 0;
}
