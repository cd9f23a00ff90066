#include "shard/sharded_emm.h"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "crypto/hmac_prf.h"
#include "crypto/random.h"
#include "sse/emm_codec.h"
#include "sse/encrypted_multimap.h"
#include "sse/keyword_keys.h"

namespace rsse::shard {
namespace {

Bytes FixedKey(uint8_t fill) { return Bytes(kLabelBytes, fill); }

sse::PlainMultimap MakePostings(int keywords, int per_keyword) {
  sse::PlainMultimap postings;
  for (int w = 0; w < keywords; ++w) {
    Bytes keyword;
    AppendUint64(keyword, static_cast<uint64_t>(w));
    for (int i = 0; i < per_keyword; ++i) {
      postings[keyword].push_back(
          sse::EncodeIdPayload(static_cast<uint64_t>(w * 1000 + i)));
    }
  }
  return postings;
}

TEST(ShardedEmmTest, MatchesFlatMultimapResults) {
  // Beside the regular lists: a posting order that is not sorted, an
  // empty list, variable-length payloads and a 10k-entry list.
  sse::PlainMultimap postings = MakePostings(40, 7);
  postings[ToBytes("order")] = {sse::EncodeIdPayload(7),
                                sse::EncodeIdPayload(5),
                                sse::EncodeIdPayload(9)};
  postings[ToBytes("empty")] = {};
  postings[ToBytes("varlen")] = {ToBytes("short"), Bytes(100, 0xaa), {}};
  for (uint64_t i = 0; i < 10000; ++i) {
    postings[ToBytes("big")].push_back(sse::EncodeIdPayload(i));
  }
  sse::PrfKeyDeriver deriver(FixedKey(0x21));

  // The flat dictionary of the paper is the 1-shard, 1-thread build; it
  // fixes the size metrics every other layout must reproduce.
  ShardOptions flat_options;
  flat_options.shards = 1;
  flat_options.threads = 1;
  auto flat = ShardedEmm::Build(postings, deriver, flat_options);
  ASSERT_TRUE(flat.ok());
  size_t expected_entries = 0;
  for (const auto& [keyword, payloads] : postings) {
    expected_entries += payloads.size();
  }
  EXPECT_EQ(flat->EntryCount(), expected_entries);
  EXPECT_GT(flat->SizeBytes(), expected_entries * kLabelBytes);

  // {shards, threads}: the flat build, a parallel build merged into one
  // shard, and a parallel build across four shards.
  for (const auto& [shards, threads] :
       std::vector<std::pair<int, int>>{{1, 1}, {1, 8}, {4, 4}}) {
    ShardOptions options;
    options.shards = shards;
    options.threads = threads;
    auto store = ShardedEmm::Build(postings, deriver, options);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store->shard_count(), shards);
    EXPECT_EQ(store->EntryCount(), flat->EntryCount());
    EXPECT_EQ(store->SizeBytes(), flat->SizeBytes());

    // The oracle is the plaintext itself: every list comes back exact and
    // in posting order.
    for (const auto& [keyword, payloads] : postings) {
      EXPECT_EQ(store->Search(deriver.Derive(keyword)), payloads)
          << ToHex(keyword) << " (" << shards << " shards, " << threads
          << " threads)";
    }
    // An unknown keyword, and a token from another key (the forward
    // privacy mechanism of Section 7), find nothing.
    EXPECT_TRUE(store->Search(deriver.Derive(ToBytes("missing"))).empty());
    sse::PrfKeyDeriver other(FixedKey(0x22));
    EXPECT_TRUE(store->Search(other.Derive(ToBytes("order"))).empty());
  }
}

TEST(ShardedEmmTest, ShardsArePopulatedAndRoutingIsStable) {
  sse::PlainMultimap postings = MakePostings(64, 4);
  sse::PrfKeyDeriver deriver(FixedKey(0x07));
  ShardOptions options;
  options.shards = 8;
  options.threads = 3;
  auto store = ShardedEmm::Build(postings, deriver, options);
  ASSERT_TRUE(store.ok());

  // 256 pseudorandom labels across 8 shards: every shard should see some.
  size_t total = 0;
  for (int s = 0; s < store->shard_count(); ++s) {
    EXPECT_GT(store->ShardEntryCount(static_cast<size_t>(s)), 0u);
    total += store->ShardEntryCount(static_cast<size_t>(s));
  }
  EXPECT_EQ(total, store->EntryCount());
}

TEST(ShardedEmmTest, SerializeRoundTripsAcrossThreadCounts) {
  sse::PlainMultimap postings = MakePostings(30, 5);
  postings[ToBytes("empty")] = {};
  sse::PrfKeyDeriver deriver(FixedKey(0x55));
  for (const int shards : {4, 1}) {
    ShardOptions options;
    options.shards = shards;
    options.threads = 2;
    options.padding.quantum = 4;
    auto store = ShardedEmm::Build(postings, deriver, options);
    ASSERT_TRUE(store.ok());
    // Padding rounds every list up to the quantum (5 -> 8, empty -> 4),
    // so the entry count hides the list lengths; Search drops the dummies.
    EXPECT_EQ(store->EntryCount(), 30u * 8 + 4);
    EXPECT_EQ(store->Search(deriver.Derive(ToBytes("empty"))).size(), 0u);

    Bytes blob = store->Serialize();
    for (int load_threads : {1, 4}) {
      auto restored = ShardedEmm::Deserialize(blob, load_threads);
      ASSERT_TRUE(restored.ok());
      EXPECT_EQ(restored->shard_count(), store->shard_count());
      EXPECT_EQ(restored->EntryCount(), store->EntryCount());
      EXPECT_EQ(restored->SizeBytes(), store->SizeBytes());
      for (const auto& [keyword, payloads] : postings) {
        sse::KeywordKeys token = deriver.Derive(keyword);
        EXPECT_EQ(restored->Search(token), payloads);
      }
      EXPECT_EQ(restored->Serialize(), blob);
    }
  }
}

TEST(ShardedEmmTest, DeserializeRejectsCorruptBlobs) {
  sse::PlainMultimap postings = MakePostings(8, 3);
  sse::PrfKeyDeriver deriver(FixedKey(0x99));
  ShardOptions options;
  options.shards = 2;
  auto store = ShardedEmm::Build(postings, deriver, options);
  ASSERT_TRUE(store.ok());
  Bytes blob = store->Serialize();

  Bytes bad_magic = blob;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(ShardedEmm::Deserialize(bad_magic).ok());

  Bytes truncated(blob.begin(), blob.begin() + static_cast<long>(
                                                   blob.size() / 2));
  EXPECT_FALSE(ShardedEmm::Deserialize(truncated).ok());

  Bytes trailing = blob;
  trailing.push_back(0x00);
  EXPECT_FALSE(ShardedEmm::Deserialize(trailing).ok());

  EXPECT_FALSE(ShardedEmm::Deserialize(Bytes{}).ok());
}

TEST(ShardedEmmTest, DeserializeByteFlipMatrixNeverCrashes) {
  // The blob carries no checksum — acceptance is structural validation
  // alone. The contract under a single flipped byte is therefore not
  // "always rejected" (a flip inside an opaque ciphertext value is
  // indistinguishable from a different ciphertext) but "never undefined":
  // each flip either fails cleanly or yields a store whose entries stay
  // within the original bounds and whose Search never faults. Structural
  // fields (magic, directory, counts, lengths, routing) must reject.
  sse::PlainMultimap postings = MakePostings(6, 2);
  sse::PrfKeyDeriver deriver(FixedKey(0xa4));
  ShardOptions options;
  options.shards = 2;
  auto store = ShardedEmm::Build(postings, deriver, options);
  ASSERT_TRUE(store.ok());
  const Bytes blob = store->Serialize();
  const size_t entries = store->EntryCount();

  // Everything before the first section's entries is structure: magic,
  // shard count, directory, first entry count. A flip there must reject.
  const size_t structural_prefix = 12 + 8 * store->shard_count() + 8;
  size_t accepted = 0;
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      Bytes mutated = blob;
      mutated[pos] ^= mask;
      auto restored = ShardedEmm::Deserialize(mutated);
      if (pos < structural_prefix) {
        EXPECT_FALSE(restored.ok())
            << "structural byte " << pos << " mask " << int(mask);
      }
      if (!restored.ok()) continue;
      ++accepted;
      EXPECT_LE(restored->EntryCount(), entries);
      for (const auto& [keyword, payloads] : postings) {
        restored->Search(deriver.Derive(keyword));  // must not fault
      }
    }
  }
  // Sanity: the matrix exercised both outcomes (values dominate the blob,
  // so some flips land in ciphertext and are structurally acceptable).
  EXPECT_GT(accepted, 0u);
}

TEST(ShardedEmmTest, DeserializeTruncationMatrixRejectsEveryPrefix) {
  sse::PlainMultimap postings = MakePostings(5, 2);
  sse::PrfKeyDeriver deriver(FixedKey(0xb7));
  ShardOptions options;
  options.shards = 2;
  auto store = ShardedEmm::Build(postings, deriver, options);
  ASSERT_TRUE(store.ok());
  const Bytes blob = store->Serialize();
  for (size_t len = 0; len < blob.size(); ++len) {
    Bytes prefix(blob.begin(), blob.begin() + static_cast<long>(len));
    EXPECT_FALSE(ShardedEmm::Deserialize(prefix).ok()) << "prefix " << len;
  }
}

TEST(ShardedEmmTest, InsertRoutesPreEncryptedEntries) {
  sse::PlainMultimap postings = MakePostings(10, 2);
  sse::PrfKeyDeriver deriver(FixedKey(0x31));
  ShardOptions options;
  options.shards = 4;
  auto store = ShardedEmm::Build(postings, deriver, options);
  ASSERT_TRUE(store.ok());
  const size_t before = store->EntryCount();

  // Client-side: encrypt a fresh keyword's postings into codec-format
  // entries, then ship the raw (label, ciphertext) pairs — the server
  // Update path.
  Bytes keyword = ToBytes("fresh-keyword");
  std::vector<Bytes> payloads = {sse::EncodeIdPayload(424242)};
  std::vector<std::pair<Label, Bytes>> entries;
  sse::EmmBuildScratch scratch;
  Status s = sse::EncryptKeywordEntries(
      keyword, payloads, deriver, /*pad_quantum=*/0, scratch,
      [&entries](const Label& label, size_t len) {
        entries.emplace_back(label, Bytes(len));
        return ByteSpan(entries.back().second.data(), len);
      });
  ASSERT_TRUE(s.ok());
  for (const auto& [label, value] : entries) {
    store->Insert(label, ConstByteSpan(value.data(), value.size()));
  }

  EXPECT_EQ(store->EntryCount(), before + entries.size());
  std::vector<Bytes> hits = store->Search(deriver.Derive(keyword));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(sse::DecodeIdPayload(hits[0]), 424242u);
}


TEST(ShardedEmmTest, MalformedStoredValueEndsSearchAfterValidPrefix) {
  // A structurally malformed value (possible only via foreign Update
  // entries) must terminate the counter probe without losing the valid
  // entries gathered before it in the same decrypt batch.
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  ShardedEmm store = ShardedEmm::WithShards(2);
  Bytes keyword = ToBytes("w");
  std::vector<Bytes> payloads = {sse::EncodeIdPayload(7),
                                 sse::EncodeIdPayload(8)};
  sse::EmmBuildScratch scratch;
  std::vector<std::pair<Label, Bytes>> entries;
  ASSERT_TRUE(sse::EncryptKeywordEntries(
                  keyword, payloads, deriver, /*pad_quantum=*/0, scratch,
                  [&entries](const Label& label, size_t len) {
                    entries.emplace_back(label, Bytes(len));
                    return ByteSpan(entries.back().second.data(), len);
                  })
                  .ok());
  for (const auto& [label, value] : entries) {
    store.Insert(label, ConstByteSpan(value.data(), value.size()));
  }
  // Plant a 20-byte (unaligned, sub-minimum) value at counter position 2.
  const sse::KeywordKeys token = deriver.Derive(keyword);
  crypto::Prf label_prf(token.label_key);
  Label bad_label;
  ASSERT_TRUE(label_prf.EvalCountersInto(
      2, 1, ByteSpan(bad_label.data(), bad_label.size()), kLabelBytes));
  const Bytes garbage(20, 0xee);
  store.Insert(bad_label, ConstByteSpan(garbage.data(), garbage.size()));

  const std::vector<Bytes> hits = store.Search(token);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(sse::DecodeIdPayload(hits[0]), 7u);
  EXPECT_EQ(sse::DecodeIdPayload(hits[1]), 8u);
}

TEST(ShardedEmmTest, ShardOfUsesRoutingBytesOnly) {
  Label a{};
  Label b{};
  b[0] = 0xff;  // probe-hash byte: must not change the shard
  EXPECT_EQ(ShardedEmm::ShardOf(a, 16), ShardedEmm::ShardOf(b, 16));
  Label c = a;
  c[15] = 0x01;  // low routing byte (big-endian): moves the shard
  EXPECT_NE(ShardedEmm::ShardOf(a, 16), ShardedEmm::ShardOf(c, 16));
}

TEST(ShardedEmmTest, ShardCountVariableParsesInFullOrExitsTwo) {
  // RSSE_SHARDS, like RSSE_BUILD_THREADS, must be a whole non-negative
  // int: a malformed value is a configuration error, not a silent single
  // shard.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  for (const char* bad : {"abc", "4x", "-2", "99999999999"}) {
    EXPECT_EXIT(
        {
          setenv("RSSE_SHARDS", bad, 1);
          ShardedEmm::WithShards(0);
        },
        ::testing::ExitedWithCode(2), std::string("RSSE_SHARDS=") + bad);
  }
  ASSERT_EQ(setenv("RSSE_SHARDS", "3", 1), 0);
  EXPECT_EQ(ShardedEmm::WithShards(0).shard_count(), 3);
  unsetenv("RSSE_SHARDS");
}

TEST(EmmSizingTest, SizingMatchesBytesActuallyWritten) {
  // The batch staging path reserves from ComputeKeywordEmmSizing and the
  // store reserves from ComputeEmmSizing; both must equal the bytes the
  // encryption actually emits — for padded, empty and non-padded lists.
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  struct Case {
    std::vector<Bytes> payloads;
    uint64_t pad_quantum;
  };
  const Case cases[] = {
      {{sse::EncodeIdPayload(1), sse::EncodeIdPayload(2),
        sse::EncodeIdPayload(3)},
       0},
      {{sse::EncodeIdPayload(1), sse::EncodeIdPayload(2),
        sse::EncodeIdPayload(3)},
       4},
      {{}, 0},
      {{}, 8},
      {{ToBytes("short"), Bytes(100, 0xaa), {}}, 5},
  };
  for (size_t k = 0; k < std::size(cases); ++k) {
    const Case& c = cases[k];
    const sse::EmmSizing sizing =
        sse::ComputeKeywordEmmSizing(c.payloads, c.pad_quantum);
    sse::EmmBuildScratch scratch;
    size_t entries = 0;
    size_t bytes_written = 0;
    std::vector<Bytes> storage;
    Status s = sse::EncryptKeywordEntries(
        ToBytes("kw"), c.payloads, deriver, c.pad_quantum, scratch,
        [&](const Label&, size_t len) {
          ++entries;
          bytes_written += len;
          storage.emplace_back(len);
          return ByteSpan(storage.back().data(), len);
        });
    ASSERT_TRUE(s.ok()) << "case " << k;
    EXPECT_EQ(entries, sizing.entries) << "case " << k;
    EXPECT_EQ(bytes_written, sizing.value_bytes) << "case " << k;
  }
}

TEST(EmmSizingTest, MultimapSizingMatchesBuiltIndex) {
  // ComputeEmmSizing over a whole multimap equals the built flat store's
  // entry count and arena bytes (SizeBytes = entries * label + values).
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  sse::PlainMultimap postings = MakePostings(3, 2);
  postings[ToBytes("empty")] = {};
  for (const uint64_t quantum : {uint64_t{0}, uint64_t{4}}) {
    const sse::EmmSizing sizing = sse::ComputeEmmSizing(postings, quantum);
    ShardOptions options;
    options.shards = 1;
    options.padding.quantum = quantum;
    auto built = ShardedEmm::Build(postings, deriver, options);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built->EntryCount(), sizing.entries);
    EXPECT_EQ(built->SizeBytes(),
              sizing.entries * kLabelBytes + sizing.value_bytes);
  }
}

TEST(IdPayloadTest, RoundTrip) {
  EXPECT_EQ(*sse::DecodeIdPayload(sse::EncodeIdPayload(0)), 0u);
  EXPECT_EQ(*sse::DecodeIdPayload(sse::EncodeIdPayload(~uint64_t{0})),
            ~uint64_t{0});
}

TEST(IdPayloadTest, RejectsWrongSize) {
  EXPECT_FALSE(sse::DecodeIdPayload(Bytes(7, 0)).has_value());
  EXPECT_FALSE(sse::DecodeIdPayload(Bytes(9, 0)).has_value());
}

// --------------------------------------------------------------------------
// v2 store image: mmap-native serialization.
// --------------------------------------------------------------------------

std::string WriteTempImage(const Bytes& image, const char* name) {
  const std::string path =
      ::testing::TempDir() + "/rsse_v2_" + name + ".img";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (!image.empty()) {
    EXPECT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
  }
  EXPECT_EQ(std::fclose(f), 0);
  return path;
}

/// Recomputes the header CRC after a deliberate header/table mutation, so
/// the test reaches the structural validator behind the checksum.
void FixV2HeaderCrc(Bytes& image) {
  const uint32_t shard_count = LoadU32Le(image.data() + 24);
  const size_t table_end = 48 + 48 * size_t{shard_count};
  StoreU32Le(image.data() + table_end, Crc32c(image.data(), table_end));
}

ShardedEmm BuildStore(int shards, int keywords = 24, int per_keyword = 5,
                      uint8_t key_fill = 0x42) {
  sse::PlainMultimap postings = MakePostings(keywords, per_keyword);
  sse::PrfKeyDeriver deriver(FixedKey(key_fill));
  ShardOptions options;
  options.shards = shards;
  auto store = ShardedEmm::Build(postings, deriver, options);
  EXPECT_TRUE(store.ok());
  return std::move(*store);
}

TEST(ShardedEmmV2Test, MappedImageMatchesHeapStoreByteForByte) {
  sse::PlainMultimap postings = MakePostings(40, 7);
  sse::PrfKeyDeriver deriver(FixedKey(0x42));
  ShardOptions options;
  options.shards = 4;
  auto store = ShardedEmm::Build(postings, deriver, options);
  ASSERT_TRUE(store.ok());

  const Bytes image = store->SerializeV2(/*kind=*/1, /*epoch=*/7);
  EXPECT_EQ(image.size() % 4096u, 0u);
  const std::string path = WriteTempImage(image, "equality");

  auto mapped = ShardedEmm::OpenMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->IsMapped());
  EXPECT_GT(mapped->MappedBytes(), 0u);
  EXPECT_EQ(mapped->HeapBytes(), 0u);
  EXPECT_EQ(mapped->EntryCount(), store->EntryCount());
  EXPECT_EQ(mapped->shard_count(), store->shard_count());

  auto heap = ShardedEmm::LoadV2(ConstByteSpan(image.data(), image.size()),
                                 /*threads=*/2);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  EXPECT_FALSE(heap->IsMapped());
  EXPECT_EQ(heap->EntryCount(), store->EntryCount());

  // Query results must be byte-identical across all three substrates.
  for (const auto& [keyword, payloads] : postings) {
    const sse::KeywordKeys token = deriver.Derive(keyword);
    const std::vector<Bytes> expected = store->Search(token);
    EXPECT_EQ(mapped->Search(token), expected);
    EXPECT_EQ(heap->Search(token), expected);
  }
  std::remove(path.c_str());
}

TEST(ShardedEmmV2Test, SerializeV2IsDeterministicAcrossSubstrates) {
  ShardedEmm store = BuildStore(3);
  const Bytes image = store.SerializeV2(1, 5);
  const std::string path = WriteTempImage(image, "determinism");
  auto mapped = ShardedEmm::OpenMapped(path);
  ASSERT_TRUE(mapped.ok());
  auto heap = ShardedEmm::LoadV2(ConstByteSpan(image.data(), image.size()));
  ASSERT_TRUE(heap.ok());
  // Re-serializing a mapped or reloaded store reproduces the image: the
  // file IS the runtime layout, so the drain-time fold is stable.
  EXPECT_EQ(mapped->SerializeV2(1, 5), image);
  EXPECT_EQ(heap->SerializeV2(1, 5), image);
  std::remove(path.c_str());
}

TEST(ShardedEmmV2Test, MappedStoreCopiesTouchedShardOnInsert) {
  ShardedEmm store = BuildStore(4);
  const Bytes image = store.SerializeV2(1, 1);
  const std::string path = WriteTempImage(image, "cow");
  auto mapped = ShardedEmm::OpenMapped(path);
  ASSERT_TRUE(mapped.ok());
  const uint64_t mapped_before = mapped->MappedBytes();
  ASSERT_GT(mapped_before, 0u);

  Label label{};
  label[15] = 0x01;  // routes to one specific shard
  const Bytes value(40, 0xab);
  mapped->Insert(label, ConstByteSpan(value.data(), value.size()));

  // Exactly the touched shard moved to heap; the rest still serve off the
  // mapping.
  EXPECT_LT(mapped->MappedBytes(), mapped_before);
  EXPECT_GT(mapped->MappedBytes(), 0u);
  EXPECT_GT(mapped->HeapBytes(), 0u);
  EXPECT_EQ(mapped->EntryCount(), store.EntryCount() + 1);
  std::remove(path.c_str());
}

TEST(ShardedEmmV2Test, HostileHeaderMatrixRejectsCleanly) {
  ShardedEmm store = BuildStore(2, 8, 3);
  const Bytes image = store.SerializeV2(1, 1);
  const auto open = [](const Bytes& img) {
    return ShardedEmm::LoadV2(ConstByteSpan(img.data(), img.size()),
                              /*threads=*/1, /*verify_checksums=*/true);
  };

  {  // wrong magic
    Bytes bad = image;
    bad[0] ^= 0xff;
    EXPECT_FALSE(open(bad).ok());
  }
  {  // unsupported version
    Bytes bad = image;
    StoreU32Le(bad.data() + 8, 3);
    FixV2HeaderCrc(bad);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // zero shards
    Bytes bad = image;
    StoreU32Le(bad.data() + 24, 0);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // implausible shard count (also walks the table past the image)
    Bytes bad = image;
    StoreU32Le(bad.data() + 24, 1u << 20);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // header checksum mismatch
    Bytes bad = image;
    StoreU64Le(bad.data() + 16, 999);  // epoch tampered, CRC not fixed
    EXPECT_FALSE(open(bad).ok());
  }
  {  // totals disagree with the section table
    Bytes bad = image;
    StoreU64Le(bad.data() + 32, LoadU64Le(bad.data() + 32) + 1);
    FixV2HeaderCrc(bad);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // image not a page multiple
    Bytes bad = image;
    bad.push_back(0);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // trailing full page after the last section
    Bytes bad = image;
    bad.resize(bad.size() + 4096, 0);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // too short to hold a header at all
    Bytes bad(image.begin(), image.begin() + 64);
    EXPECT_FALSE(open(bad).ok());
  }
}

TEST(ShardedEmmV2Test, HostileSectionMatrixRejectsCleanly) {
  ShardedEmm store = BuildStore(2, 8, 3);
  const Bytes image = store.SerializeV2(1, 1);
  const auto open = [](const Bytes& img) {
    return ShardedEmm::LoadV2(ConstByteSpan(img.data(), img.size()),
                              /*threads=*/1, /*verify_checksums=*/true);
  };
  // Section-table entry layout: u64 slots_at, u64 slots_bytes, u64
  // arena_at, u64 arena_bytes, u64 entries, u32+u32 CRCs, at 48 + 48*s.
  {  // unaligned slot offset
    Bytes bad = image;
    StoreU64Le(bad.data() + 48, LoadU64Le(bad.data() + 48) + 1);
    FixV2HeaderCrc(bad);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // overlapping sections: arena aliased onto the slot table
    Bytes bad = image;
    StoreU64Le(bad.data() + 48 + 16, LoadU64Le(bad.data() + 48));
    FixV2HeaderCrc(bad);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // slot section length out of bounds
    Bytes bad = image;
    StoreU64Le(bad.data() + 48 + 8, bad.size());
    FixV2HeaderCrc(bad);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // arena length out of bounds (and u64-overflow bait)
    Bytes bad = image;
    StoreU64Le(bad.data() + 48 + 24, ~uint64_t{0} - 4096);
    FixV2HeaderCrc(bad);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // truncated arena: the last section's tail cut off
    Bytes bad = image;
    bad.resize(bad.size() - 4096);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // entries exceeding half the slot capacity (view load-factor bound)
    Bytes bad = image;
    const uint64_t capacity = LoadU64Le(bad.data() + 48 + 8) / 32;
    StoreU64Le(bad.data() + 48 + 32, capacity);
    // keep the header totals consistent so the structural check is the
    // one that fires
    uint64_t total = 0;
    for (size_t s = 0; s < 2; ++s) {
      total += LoadU64Le(bad.data() + 48 + 48 * s + 32);
    }
    StoreU64Le(bad.data() + 32, total);
    FixV2HeaderCrc(bad);
    EXPECT_FALSE(open(bad).ok());
  }
  {  // per-section CRC mismatch: flip one arena byte
    Bytes bad = image;
    const uint64_t arena_at = LoadU64Le(bad.data() + 48 + 16);
    bad[arena_at] ^= 0xff;
    EXPECT_FALSE(open(bad).ok());
    // ... which only the checksum pass catches; the lazy open accepts the
    // image (the flipped byte is an opaque ciphertext byte) and must still
    // probe without faulting.
    auto lazy = ShardedEmm::LoadV2(ConstByteSpan(bad.data(), bad.size()),
                                   /*threads=*/1,
                                   /*verify_checksums=*/false);
    ASSERT_TRUE(lazy.ok());
    EXPECT_EQ(lazy->EntryCount(), store.EntryCount());
  }
}

TEST(ShardedEmmV2Test, HostileHeaderByteFlipMatrixNeverCrashes) {
  // Every single-byte flip in the header page either rejects cleanly or
  // (flips inside the zero padding) loads a store equal to the original.
  // Never UB — this test earns its keep under ASan.
  ShardedEmm store = BuildStore(2, 4, 2);
  const Bytes image = store.SerializeV2(1, 1);
  const size_t entries = store.EntryCount();
  for (size_t pos = 0; pos < 4096; ++pos) {
    Bytes bad = image;
    bad[pos] ^= 0x01;
    auto loaded = ShardedEmm::LoadV2(ConstByteSpan(bad.data(), bad.size()),
                                     /*threads=*/1,
                                     /*verify_checksums=*/true);
    if (loaded.ok()) {
      EXPECT_EQ(loaded->EntryCount(), entries) << "byte " << pos;
    }
  }
}

TEST(ShardedEmmV2Test, OpenMappedRejectsMissingAndEmptyFiles) {
  EXPECT_FALSE(
      ShardedEmm::OpenMapped("/nonexistent/rsse-v2-image.img").ok());
  const std::string path = WriteTempImage(Bytes{}, "empty");
  EXPECT_FALSE(ShardedEmm::OpenMapped(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rsse::shard
