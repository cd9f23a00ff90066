// Deterministic hostile-input sweeps over every untrusted decoder — the
// in-suite mirror of the fuzz/ harnesses, so the properties the fuzzers
// explore stochastically are also pinned on every plain `ctest` run:
// truncating or flipping any byte of any valid encoding must produce a
// clean rejection (or a clean alternative parse), never a crash, an
// over-read, or an allocation driven by a corrupt length field. The sweep
// inputs are exactly the transformations gen_corpus commits as rejection
// seeds; anything a fuzzer finds beyond them gets promoted to an explicit
// case here.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "server/persist.h"
#include "server/wire.h"
#include "shard/sharded_emm.h"
#include "sse/keyword_keys.h"

namespace rsse::server {
namespace {

using shard::ShardedEmm;

Label MakeLabel(uint8_t fill) {
  Label l{};
  l.fill(fill);
  return l;
}

ShardedEmm MakeStore() {
  ShardedEmm emm = ShardedEmm::WithShards(2);
  for (uint8_t i = 0; i < 8; ++i) {
    emm.Insert(MakeLabel(i), Bytes(24 + i, static_cast<uint8_t>(0xA0 + i)));
  }
  return emm;
}

Bytes MustFrame(FrameType type, const Bytes& payload) {
  Bytes out;
  EXPECT_TRUE(EncodeFrame(type, payload, out));
  return out;
}

/// Runs `buf` through the full stream parser exactly like the server's
/// read loop, dispatching each decoded payload to its typed decoder.
/// Returns the number of whole frames decoded. The only assertable
/// invariants are safety ones: offset stays in bounds and always advances
/// on kFrame (no infinite pump loop on hostile bytes).
size_t PumpAll(const Bytes& buf) {
  size_t offset = 0;
  size_t frames = 0;
  Frame frame;
  std::string error;
  while (true) {
    const size_t before = offset;
    const FrameParse parse = DecodeFrame(buf, offset, frame, &error);
    if (parse != FrameParse::kFrame) {
      EXPECT_EQ(offset, before);  // only kFrame may consume bytes
      break;
    }
    EXPECT_GT(offset, before);
    EXPECT_LE(offset, buf.size());
    ++frames;
    switch (frame.type) {
      case FrameType::kSetupResp:
        (void)SetupResponse::Decode(frame.payload);
        break;
      case FrameType::kSearchBatchReq:
        (void)SearchBatchRequest::Decode(frame.payload);
        break;
      case FrameType::kSearchResult:
        (void)SearchResult::Decode(frame.payload);
        break;
      case FrameType::kSearchDone:
        (void)SearchDone::Decode(frame.payload);
        break;
      case FrameType::kUpdateReq:
        (void)UpdateRequest::Decode(frame.payload);
        break;
      case FrameType::kUpdateResp:
        (void)UpdateResponse::Decode(frame.payload);
        break;
      case FrameType::kStatsResp:
        (void)StatsResponse::Decode(frame.payload);
        break;
      case FrameType::kError:
      case FrameType::kErrorDraining:
        (void)ErrorResponse::Decode(frame.payload);
        break;
      case FrameType::kSetupStoreReq:
        (void)SetupStoreRequest::Decode(frame.payload);
        break;
      case FrameType::kSearchKeywordReq:
        (void)SearchKeywordRequest::Decode(frame.payload);
        break;
      case FrameType::kSearchPayload:
        (void)SearchPayloadResult::Decode(frame.payload);
        break;
      case FrameType::kStatsReq:
        break;
    }
  }
  return frames;
}

/// One representative valid frame per payload-carrying type.
std::vector<Bytes> ValidFrames() {
  SearchBatchRequest batch;
  WireQuery query;
  query.query_id = 42;
  query.tokens.push_back(WireToken{3, MakeLabel(0x40)});
  query.tokens.push_back(WireToken{0, MakeLabel(0x41)});
  batch.queries.push_back(query);

  UpdateRequest update;
  update.entries.emplace_back(MakeLabel(0x11), Bytes{1, 2, 3, 4});
  update.entries.emplace_back(MakeLabel(0x22), Bytes(40, 0xEE));

  SearchKeywordRequest keyword;
  keyword.store_id = 1;
  SearchKeywordRequest::Query kq;
  kq.query_id = 7;
  kq.tokens.push_back(WireKeywordToken{0, Bytes(16, 0x51), Bytes(16, 0x52)});
  keyword.queries.push_back(kq);

  SetupStoreRequest setup_store;
  setup_store.store_id = 2;
  setup_store.index_blob = Bytes(64, 0x33);
  setup_store.gate_blob = Bytes{0xDE, 0xAD};

  SearchResult result;
  result.query_id = 42;
  result.ids = {1, 2, 1ull << 40};

  SearchDone done;
  done.query_count = 1;
  done.tokens_received = 2;

  ErrorResponse error;
  error.message = "boom";

  StatsResponse stats;
  stats.entries = 8;
  stats.shards = 2;

  SearchPayloadResult payloads;
  payloads.query_id = 7;
  payloads.payloads = {Bytes{9, 8, 7}, Bytes(24, 0x31)};

  return {
      MustFrame(FrameType::kSearchBatchReq, batch.Encode()),
      MustFrame(FrameType::kUpdateReq, update.Encode()),
      MustFrame(FrameType::kSearchKeywordReq, keyword.Encode()),
      MustFrame(FrameType::kSetupStoreReq, setup_store.Encode()),
      MustFrame(FrameType::kSearchResult, result.Encode()),
      MustFrame(FrameType::kSearchDone, done.Encode()),
      MustFrame(FrameType::kError, error.Encode()),
      MustFrame(FrameType::kStatsResp, stats.Encode()),
      MustFrame(FrameType::kSearchPayload, payloads.Encode()),
      MustFrame(FrameType::kUpdateResp, UpdateResponse{2}.Encode()),
      MustFrame(FrameType::kSetupResp, SetupResponse{2, 8}.Encode()),
  };
}

TEST(WireFuzzTest, ValidFramesDecodeWhole) {
  for (const Bytes& frame : ValidFrames()) {
    EXPECT_EQ(PumpAll(frame), 1u);
  }
}

TEST(WireFuzzTest, EveryTruncationIsIncompleteNeverAFrame) {
  for (const Bytes& frame : ValidFrames()) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      const Bytes prefix(frame.begin(), frame.begin() + cut);
      size_t offset = 0;
      Frame out;
      const FrameParse parse = DecodeFrame(prefix, offset, out, nullptr);
      // A strict prefix can be kNeedMore (length not yet satisfied) but
      // never a whole frame; kMalformed is impossible here because every
      // header field stays the valid original's.
      EXPECT_NE(parse, FrameParse::kFrame) << "cut=" << cut;
      EXPECT_EQ(offset, 0u);
    }
  }
}

TEST(WireFuzzTest, EveryByteFlipPumpsWithoutCrashing) {
  for (const Bytes& frame : ValidFrames()) {
    for (size_t at = 0; at < frame.size(); ++at) {
      Bytes mutated = frame;
      mutated[at] ^= 0xff;
      (void)PumpAll(mutated);  // any outcome but a crash/over-read is fine
    }
  }
}

TEST(WireFuzzTest, HostileLengthPrefixNeverAllocates) {
  // frame_len within the cap but far beyond the buffer: the parser must
  // wait for bytes (kNeedMore), not trust the prefix.
  const Bytes in_cap{0x3f, 0xff, 0xff, 0xff, 0x02, 0x03};
  size_t offset = 0;
  Frame frame;
  EXPECT_EQ(DecodeFrame(in_cap, offset, frame, nullptr),
            FrameParse::kNeedMore);

  // Above the cap: unrecoverable, drop the peer.
  const Bytes over_cap{0x40, 0x00, 0x00, 0x01, 0x02, 0x03};
  offset = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(over_cap, offset, frame, &error),
            FrameParse::kMalformed);
  EXPECT_FALSE(error.empty());
}

TEST(WireFuzzTest, RawBytesThroughEveryTypedDecoder) {
  // Deterministic pseudo-random buffers straight into the typed decoders,
  // bypassing the framer's screening (the fuzz_wire direct path).
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint8_t>(state >> 56);
  };
  for (const size_t len : {0, 1, 3, 7, 16, 64, 1024}) {
    Bytes buf(len);
    for (auto& b : buf) b = next();
    (void)SetupResponse::Decode(buf);
    (void)SearchBatchRequest::Decode(buf);
    (void)SearchResult::Decode(buf);
    (void)SearchDone::Decode(buf);
    (void)UpdateRequest::Decode(buf);
    (void)UpdateResponse::Decode(buf);
    (void)StatsResponse::Decode(buf);
    (void)ErrorResponse::Decode(buf);
    (void)SetupStoreRequest::Decode(buf);
    (void)SearchKeywordRequest::Decode(buf);
    (void)SearchPayloadResult::Decode(buf);
  }
}

TEST(WalFuzzTest, TruncationSweepStopsAtRecordBoundaries) {
  UpdateRequest update;
  update.entries.emplace_back(MakeLabel(0x77), Bytes(12, 0x55));
  Bytes log;
  std::vector<size_t> boundaries;
  for (uint64_t epoch : {3ull, 3ull, 4ull}) {
    StorePersistence::EncodeWalRecord(epoch, update.Encode(), log);
    boundaries.push_back(log.size());
  }

  for (size_t cut = 0; cut <= log.size(); ++cut) {
    const Bytes prefix(log.begin(), log.begin() + cut);
    std::vector<StorePersistence::WalRecord> records;
    const size_t good_end = StorePersistence::DecodeWalRecords(prefix,
                                                               records);
    ASSERT_LE(good_end, prefix.size());
    // good_end is always the largest record boundary <= cut, and the
    // record count matches it: the durable prefix survives, the torn
    // tail is cut.
    size_t expect_records = 0;
    size_t expect_end = 0;
    for (const size_t b : boundaries) {
      if (b <= cut) {
        ++expect_records;
        expect_end = b;
      }
    }
    EXPECT_EQ(good_end, expect_end) << "cut=" << cut;
    ASSERT_EQ(records.size(), expect_records) << "cut=" << cut;
    for (const auto& record : records) {
      EXPECT_TRUE(UpdateRequest::Decode(record.payload).ok());
    }
  }
}

TEST(WalFuzzTest, ByteFlipSweepNeverCrashesAndNeverForgesARecord) {
  UpdateRequest update;
  update.entries.emplace_back(MakeLabel(0x77), Bytes(12, 0x55));
  Bytes log;
  StorePersistence::EncodeWalRecord(3, update.Encode(), log);
  const size_t record_len = log.size();
  StorePersistence::EncodeWalRecord(4, update.Encode(), log);

  for (size_t at = 0; at < record_len; ++at) {
    Bytes mutated = log;
    mutated[at] ^= 0x01;
    std::vector<StorePersistence::WalRecord> records;
    const size_t good_end = StorePersistence::DecodeWalRecords(mutated,
                                                               records);
    ASSERT_LE(good_end, mutated.size());
    // Any flip inside the first record either kills it via CRC/length
    // (log truncates to zero records — the second never parses because
    // replay stops at the first bad one) or resizes it such that nothing
    // downstream aligns. It must never still count two clean records.
    EXPECT_LT(records.size(), 2u) << "flip at " << at;
  }
}

TEST(StoreImageFuzzTest, TruncationAndFlipSweepRejectsCleanly) {
  const ShardedEmm emm = MakeStore();
  const Bytes image = emm.SerializeV2(/*kind=*/0, /*epoch=*/7);
  ASSERT_TRUE(ShardedEmm::LoadV2(image, 1).ok());
  const size_t entries = emm.EntryCount();

  for (size_t cut = 0; cut < image.size();
       cut += (cut < 128 ? 1 : 97)) {  // dense over the header, strided after
    const ConstByteSpan prefix(image.data(), cut);
    for (const bool verify : {true, false}) {
      auto loaded = ShardedEmm::LoadV2(prefix, 1, verify);
      EXPECT_FALSE(loaded.ok()) << "cut=" << cut << " verify=" << verify;
    }
  }

  for (size_t at = 0; at < image.size();
       at += (at < 128 ? 1 : 97)) {
    Bytes mutated = image;
    mutated[at] ^= 0xff;
    // verify_checksums=true must catch every flip the structural checks
    // miss; without verification a flip inside entry *data* may load (the
    // lax mode trusts content, not structure — as an image with
    // recomputed CRCs would be) but probing the store must stay in bounds.
    auto strict = ShardedEmm::LoadV2(mutated, 1, true);
    if (strict.ok()) {
      // Flips in dead bytes (alignment padding) can legitimately pass.
      EXPECT_EQ(strict->EntryCount(), entries);
    }
    auto lax = ShardedEmm::LoadV2(mutated, 1, false);
    if (lax.ok()) {
      sse::KeywordKeys keys;
      keys.label_key.assign(16, 0x5A);
      keys.value_key.assign(16, 0xA5);
      (void)lax->Search(keys);
    }
  }
}

TEST(ShardBlobFuzzTest, TruncationAndFlipSweepRejectsCleanly) {
  const Bytes blob = MakeStore().Serialize();

  for (size_t cut = 0; cut < blob.size();
       cut += (cut < 64 ? 1 : 89)) {
    const Bytes prefix(blob.begin(), blob.begin() + cut);
    EXPECT_FALSE(ShardedEmm::Deserialize(prefix, 1).ok()) << "cut=" << cut;
  }

  for (size_t at = 0; at < blob.size(); at += (at < 64 ? 1 : 89)) {
    Bytes mutated = blob;
    mutated[at] ^= 0xff;
    auto loaded = ShardedEmm::Deserialize(mutated, 1);
    if (loaded.ok()) {
      sse::KeywordKeys keys;
      keys.label_key.assign(16, 0x5A);
      keys.value_key.assign(16, 0xA5);
      (void)loaded->Search(keys);
    }
  }

  // The cross-generation mistake: a v2 image through the v1 entry point.
  EXPECT_FALSE(ShardedEmm::Deserialize(MakeStore().SerializeV2(), 1).ok());
}

}  // namespace
}  // namespace rsse::server
