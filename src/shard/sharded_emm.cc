#include "shard/sharded_emm.h"

#include <algorithm>
#include <cstring>

#include "common/crc32c.h"
#include "common/env.h"
#include "common/parallel.h"
#include "crypto/aes.h"

namespace rsse::shard {

namespace {

constexpr uint64_t kShardMagic = 0x5253534553484d31ull;  // "RSSESHM1"
constexpr int kMaxShards = 4096;

/// Staging bucket: entries one build worker encrypted for one shard.
/// Ciphertexts are packed back to back (the lengths delimit them).
struct Bucket {
  std::vector<Label> labels;
  std::vector<uint32_t> value_lens;
  Bytes values;
};

int ResolveShardCount(int requested) {
  int shards = ResolveThreadCount(requested, "RSSE_SHARDS");
  return std::clamp(shards, 1, kMaxShards);
}

}  // namespace

ShardedEmm ShardedEmm::WithShards(int shards) {
  return ShardedEmm(static_cast<size_t>(ResolveShardCount(shards)));
}

size_t ShardedEmm::ShardOf(const Label& label, size_t shard_count) {
  // Bytes [8, 16) route; bytes [0, 8) feed the in-shard probe hash
  // (LabelHash). Labels are PRF outputs, so both halves are independently
  // uniform. Read big-endian like the rest of the serialization format,
  // so a multi-shard blob routes identically on every host.
  uint64_t v = 0;
  for (size_t i = 8; i < kLabelBytes; ++i) v = (v << 8) | label[i];
  return static_cast<size_t>(v % shard_count);
}

Result<ShardedEmm> ShardedEmm::Build(const sse::PlainMultimap& postings,
                                     const sse::KeywordKeyDeriver& deriver,
                                     const ShardOptions& options) {
  const size_t shard_count =
      static_cast<size_t>(ResolveShardCount(options.shards));
  const int threads = ResolveThreadCount(options.threads,
                                         "RSSE_BUILD_THREADS");
  ShardedEmm store(shard_count);

  if (shard_count == 1 && threads == 1) {
    // Degenerate single-shard single-thread build (the paper's flat
    // dictionary): exact-size reserve from the shared cost model and
    // in-place encryption into the one table arena.
    const sse::EmmSizing sizing =
        sse::ComputeEmmSizing(postings, options.padding.quantum);
    sse::FlatLabelMap& dict = store.shards_[0];
    dict.Reserve(sizing.entries, sizing.value_bytes);
    sse::EmmBuildScratch scratch;
    for (const auto& [keyword, payloads] : postings) {
      Status s = sse::EncryptKeywordEntries(
          keyword, payloads, deriver, options.padding.quantum, scratch,
          [&dict](const Label& label, size_t len) {
            return dict.InsertUninit(label, len);
          });
      if (!s.ok()) return s;
    }
    return store;
  }

  // Phase A — encryption (embarrassingly parallel over keywords): each
  // worker encrypts its strided slice of the keyword set and routes every
  // entry into a private per-shard staging bucket; no locks, no sharing.
  std::vector<const std::pair<const Bytes, std::vector<Bytes>>*> items;
  items.reserve(postings.size());
  for (const auto& kv : postings) items.push_back(&kv);

  std::vector<std::vector<Bucket>> staging(
      static_cast<size_t>(threads), std::vector<Bucket>(shard_count));
  std::vector<Status> worker_status(static_cast<size_t>(threads));

  RunWorkers(threads, [&](int t) {
    sse::EmmBuildScratch scratch;
    std::vector<Bucket>& buckets = staging[static_cast<size_t>(t)];
    for (size_t i = static_cast<size_t>(t); i < items.size();
         i += static_cast<size_t>(threads)) {
      Status s = sse::EncryptKeywordEntries(
          items[i]->first, items[i]->second, deriver, options.padding.quantum,
          scratch, [&buckets, shard_count](const Label& label, size_t len) {
            Bucket& b = buckets[ShardOf(label, shard_count)];
            b.labels.push_back(label);
            b.value_lens.push_back(static_cast<uint32_t>(len));
            const size_t old_size = b.values.size();
            b.values.resize(old_size + len);
            return ByteSpan(b.values.data() + old_size, len);
          });
      if (!s.ok()) {
        worker_status[static_cast<size_t>(t)] = s;
        return;
      }
    }
  });
  for (const Status& s : worker_status) {
    if (!s.ok()) return s;
  }

  // Phase B — merge (parallel over *shards*, the step the unsharded build
  // funnels through one thread): each shard owner sums the exact entry and
  // arena sizes of its buckets, reserves once, and copies them in.
  const int merge_workers =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(threads),
                                        shard_count));
  RunWorkers(merge_workers, [&](int w) {
    for (size_t s = static_cast<size_t>(w); s < shard_count;
         s += static_cast<size_t>(merge_workers)) {
      size_t entries = 0;
      size_t value_bytes = 0;
      for (int t = 0; t < threads; ++t) {
        const Bucket& b = staging[static_cast<size_t>(t)][s];
        entries += b.labels.size();
        value_bytes += b.values.size();
      }
      sse::FlatLabelMap& dict = store.shards_[s];
      dict.Reserve(entries, value_bytes);
      for (int t = 0; t < threads; ++t) {
        const Bucket& b = staging[static_cast<size_t>(t)][s];
        size_t offset = 0;
        for (size_t i = 0; i < b.labels.size(); ++i) {
          dict.Insert(b.labels[i],
                      ConstByteSpan(b.values.data() + offset,
                                    b.value_lens[i]));
          offset += b.value_lens[i];
        }
      }
    }
  });
  return store;
}

std::optional<ConstByteSpan> ShardedEmm::Find(const Label& label) const {
  if (shards_.empty()) return std::nullopt;
  return shards_[ShardOf(label, shards_.size())].Find(label);
}

void ShardedEmm::Insert(const Label& label, ConstByteSpan value) {
  if (shards_.empty()) shards_.resize(1);
  shards_[ShardOf(label, shards_.size())].Insert(label, value);
}

std::vector<Bytes> ShardedEmm::Search(const sse::KeywordKeys& token) const {
  return Search(token, nullptr, nullptr);
}

std::vector<Bytes> ShardedEmm::Search(const sse::KeywordKeys& token,
                                      const sse::LabelGate* gate,
                                      sse::SearchStats* stats) const {
  std::vector<Bytes> results;
  sse::SearchEntries(
      token, [this](const Label& label) { return Find(label); }, results,
      gate, stats);
  return results;
}

size_t ShardedEmm::EntryCount() const {
  size_t n = 0;
  for (const sse::FlatLabelMap& s : shards_) n += s.size();
  return n;
}

size_t ShardedEmm::SizeBytes() const {
  size_t bytes = 0;
  for (const sse::FlatLabelMap& s : shards_) {
    bytes += s.size() * kLabelBytes + s.ValueBytes();
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Serialization. Layout (all integers big-endian):
//   [u64 magic "RSSESHM1"][u32 shard_count]
//   [u64 section_len] x shard_count            -- the shard directory
//   section x shard_count
// where each section is
//   [u64 entry_count] ([16-byte label][u32 value_len][value]) x entry_count
// The directory makes every section independently addressable, so both
// Serialize and Deserialize fan shards out across worker threads.
// ---------------------------------------------------------------------------

Bytes ShardedEmm::Serialize() const {
  const size_t shard_count = shards_.size();
  std::vector<size_t> section_len(shard_count);
  size_t total = 12 + 8 * shard_count;
  for (size_t s = 0; s < shard_count; ++s) {
    section_len[s] =
        8 + shards_[s].size() * (kLabelBytes + 4) + shards_[s].ValueBytes();
    total += section_len[s];
  }

  Bytes out(total);
  size_t offset = 0;
  auto put_u64 = [&out](size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out[at + static_cast<size_t>(i)] =
          static_cast<uint8_t>(v >> (56 - 8 * i));
    }
  };
  put_u64(0, kShardMagic);
  out[8] = static_cast<uint8_t>(shard_count >> 24);
  out[9] = static_cast<uint8_t>(shard_count >> 16);
  out[10] = static_cast<uint8_t>(shard_count >> 8);
  out[11] = static_cast<uint8_t>(shard_count);
  offset = 12;
  std::vector<size_t> section_at(shard_count);
  size_t cursor = 12 + 8 * shard_count;
  for (size_t s = 0; s < shard_count; ++s) {
    put_u64(offset, section_len[s]);
    offset += 8;
    section_at[s] = cursor;
    cursor += section_len[s];
  }

  const int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(
                           ResolveThreadCount(0, "RSSE_BUILD_THREADS")),
                       shard_count));
  RunWorkers(workers, [&](int w) {
    for (size_t s = static_cast<size_t>(w); s < shard_count;
         s += static_cast<size_t>(workers)) {
      size_t at = section_at[s];
      put_u64(at, shards_[s].size());
      at += 8;
      shards_[s].ForEach([&](const Label& label, ConstByteSpan value) {
        std::memcpy(out.data() + at, label.data(), kLabelBytes);
        at += kLabelBytes;
        const uint32_t len = static_cast<uint32_t>(value.size());
        out[at] = static_cast<uint8_t>(len >> 24);
        out[at + 1] = static_cast<uint8_t>(len >> 16);
        out[at + 2] = static_cast<uint8_t>(len >> 8);
        out[at + 3] = static_cast<uint8_t>(len);
        at += 4;
        std::memcpy(out.data() + at, value.data(), value.size());
        at += value.size();
      });
    }
  });
  return out;
}

namespace {

/// Parses and validates one stored shard section — the single definition
/// of what a well-formed section is.
/// `on_count(count, value_bytes_upper_bound)` fires once before the
/// entries (table reservation); `emit(label, value_at, value_len)` fires
/// per validated entry.
template <typename OnCount, typename EmitFn>
Status ParseShardSection(const Bytes& blob, size_t section_at,
                         size_t section_len, size_t stored_shard,
                         size_t shard_count, OnCount&& on_count,
                         EmitFn&& emit) {
  const size_t end = section_at + section_len;
  size_t at = section_at;
  const uint64_t count = ReadUint64(blob, at);
  at += 8;
  // Every entry needs at least label + length prefix + a value byte.
  if (count > (end - at) / (kLabelBytes + 4 + 1)) {
    return Status::InvalidArgument("implausible entry count in shard");
  }
  on_count(static_cast<size_t>(count), end - at - count * (kLabelBytes + 4));
  Label label;
  for (uint64_t i = 0; i < count; ++i) {
    if (at + kLabelBytes + 4 > end) {
      return Status::InvalidArgument("truncated shard entry");
    }
    std::memcpy(label.data(), blob.data() + at, kLabelBytes);
    at += kLabelBytes;
    const uint32_t value_len = ReadUint32(blob, at);
    at += 4;
    if (value_len == 0 || value_len > end - at) {
      return Status::InvalidArgument("truncated shard entry value");
    }
    if (ShardedEmm::ShardOf(label, shard_count) != stored_shard) {
      return Status::InvalidArgument("entry routed to the wrong shard");
    }
    emit(label, at, value_len);
    at += value_len;
  }
  if (at != end) {
    return Status::InvalidArgument("trailing bytes in shard section");
  }
  return Status::Ok();
}

}  // namespace

Result<ShardedEmm> ShardedEmm::Deserialize(const Bytes& blob, int threads) {
  if (blob.size() < 12 || ReadUint64(blob, 0) != kShardMagic) {
    return Status::InvalidArgument("not a ShardedEmm blob");
  }
  const uint32_t shard_count = ReadUint32(blob, 8);
  if (shard_count == 0 || shard_count > kMaxShards) {
    return Status::InvalidArgument("implausible shard count in blob header");
  }
  const size_t dir_end = 12 + size_t{8} * shard_count;
  if (blob.size() < dir_end) {
    return Status::InvalidArgument("truncated blob (shard directory)");
  }
  std::vector<size_t> section_at(shard_count);
  std::vector<size_t> section_len(shard_count);
  size_t cursor = dir_end;
  for (uint32_t s = 0; s < shard_count; ++s) {
    const uint64_t len = ReadUint64(blob, 12 + size_t{8} * s);
    if (len < 8 || len > blob.size() - cursor) {
      return Status::InvalidArgument("implausible shard section length");
    }
    section_at[s] = cursor;
    section_len[s] = static_cast<size_t>(len);
    cursor += static_cast<size_t>(len);
  }
  if (cursor != blob.size()) {
    return Status::InvalidArgument("trailing bytes after shard sections");
  }

  ShardedEmm store(shard_count);
  // Each stored section IS its shard: parse it straight into the table,
  // one shard per worker at a time.
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(ResolveThreadCount(threads, "RSSE_BUILD_THREADS")),
      shard_count));
  std::vector<Status> worker_status(static_cast<size_t>(workers));
  RunWorkers(workers, [&](int w) {
    for (size_t s = static_cast<size_t>(w); s < shard_count;
         s += static_cast<size_t>(workers)) {
      sse::FlatLabelMap& dict = store.shards_[s];
      Status status = ParseShardSection(
          blob, section_at[s], section_len[s], s, shard_count,
          [&dict](size_t count, size_t value_bytes) {
            dict.Reserve(count, value_bytes);
          },
          [&dict, &blob](const Label& label, size_t value_at,
                         uint32_t value_len) {
            dict.Insert(label,
                        ConstByteSpan(blob.data() + value_at, value_len));
          });
      if (!status.ok()) {
        worker_status[static_cast<size_t>(w)] = status;
        return;
      }
    }
  });
  for (const Status& s : worker_status) {
    if (!s.ok()) return s;
  }
  return store;
}

// ---------------------------------------------------------------------------
// v2 store image: the mmap-native layout. The file is its own runtime
// representation — a mapped image serves Find/Search with zero
// deserialization. Layout (all integers little-endian; "aligned" means a
// 4096-byte boundary):
//
//   [0]   char[8]  "RSSESHM2"
//   [8]   u32      version (2)
//   [12]  u8       kind, then 3 zero bytes
//   [16]  u64      epoch
//   [24]  u32      shard_count          (1 .. kMaxShards)
//   [28]  u32      zero
//   [32]  u64      total entry count    (== sum of per-shard entries)
//   [40]  u64      total value bytes    (== sum of per-shard arena bytes)
//   [48]  section table, shard_count x 48 bytes:
//           u64 slots_offset   u64 slots_bytes
//           u64 arena_offset   u64 arena_bytes
//           u64 entries        u32 slots_crc32c   u32 arena_crc32c
//   [...] u32      header CRC32C over everything above it
//   zero padding to the next aligned boundary, then the sections in shard
//   order with canonical packing: each non-empty section starts at the
//   next aligned boundary and is zero-padded up to the following one;
//   empty sections (bytes == 0) record the cursor and consume nothing.
//
// Each shard's slot section is its FlatLabelMap table in probe layout
// (packed kSlotRecordBytes records — see flat_label_map.h), its arena
// section the compacted ciphertext bytes. Canonical packing means a
// validator recomputes every offset from the byte counts alone, so
// unaligned, overlapping or out-of-bounds sections are all rejected by one
// equality check per field. The header + table are validated (and
// checksummed) first — O(shards), not O(bytes) — then the section CRCs
// in one pass over the bytes.
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kV2PageBytes = 4096;
constexpr uint32_t kV2Version = 2;
constexpr size_t kV2FixedHeaderBytes = 48;
constexpr size_t kV2SectionEntryBytes = 48;
const uint8_t kV2Magic[8] = {'R', 'S', 'S', 'E', 'S', 'H', 'M', '2'};

size_t AlignPage(size_t n) {
  return (n + kV2PageBytes - 1) & ~(kV2PageBytes - 1);
}

/// One shard's parsed section table entry, as byte ranges of the image.
struct V2ShardRef {
  size_t slots_at = 0;
  size_t slots_bytes = 0;
  size_t arena_at = 0;
  size_t arena_bytes = 0;
  uint64_t entries = 0;
  uint32_t slots_crc = 0;
  uint32_t arena_crc = 0;
};

size_t V2HeaderBytes(size_t shard_count) {
  return AlignPage(kV2FixedHeaderBytes + kV2SectionEntryBytes * shard_count +
                   4);
}

/// Validates a v2 header + section table (the O(shards) eager pass) and
/// fills `refs`. Does not touch section bytes.
Status ParseV2Header(ConstByteSpan image, std::vector<V2ShardRef>& refs) {
  if (image.size() < kV2PageBytes ||
      std::memcmp(image.data(), kV2Magic, sizeof(kV2Magic)) != 0) {
    return Status::InvalidArgument("not a v2 store image");
  }
  if (image.size() % kV2PageBytes != 0) {
    return Status::InvalidArgument("v2 image is not page-aligned");
  }
  if (LoadU32Le(image.data() + 8) != kV2Version) {
    return Status::InvalidArgument("unsupported v2 image version");
  }
  const uint32_t shard_count = LoadU32Le(image.data() + 24);
  if (shard_count == 0 || shard_count > kMaxShards) {
    return Status::InvalidArgument("implausible shard count in v2 header");
  }
  const size_t table_end =
      kV2FixedHeaderBytes + kV2SectionEntryBytes * size_t{shard_count};
  const size_t header_bytes = V2HeaderBytes(shard_count);
  if (header_bytes > image.size()) {
    return Status::InvalidArgument("v2 section table exceeds the image");
  }
  const uint32_t stored_crc = LoadU32Le(image.data() + table_end);
  if (Crc32c(image.data(), table_end) != stored_crc) {
    return Status::InvalidArgument("v2 header checksum mismatch");
  }
  const uint64_t total_entries = LoadU64Le(image.data() + 32);
  const uint64_t total_value_bytes = LoadU64Le(image.data() + 40);

  refs.assign(shard_count, V2ShardRef{});
  size_t cursor = header_bytes;
  uint64_t entries_sum = 0;
  uint64_t value_bytes_sum = 0;
  for (uint32_t s = 0; s < shard_count; ++s) {
    const uint8_t* e =
        image.data() + kV2FixedHeaderBytes + kV2SectionEntryBytes * size_t{s};
    V2ShardRef& ref = refs[s];
    ref.slots_at = LoadU64Le(e);
    ref.slots_bytes = LoadU64Le(e + 8);
    ref.arena_at = LoadU64Le(e + 16);
    ref.arena_bytes = LoadU64Le(e + 24);
    ref.entries = LoadU64Le(e + 32);
    ref.slots_crc = LoadU32Le(e + 40);
    ref.arena_crc = LoadU32Le(e + 44);
    // Canonical packing: every offset is determined by the byte counts, so
    // these equality checks reject unaligned, overlapping, out-of-order
    // and out-of-bounds sections alike.
    if (ref.slots_at != cursor) {
      return Status::InvalidArgument("v2 slot section at unexpected offset");
    }
    if (ref.slots_bytes > image.size() - cursor) {
      return Status::InvalidArgument("v2 slot section out of bounds");
    }
    cursor += AlignPage(ref.slots_bytes);
    if (cursor > image.size() || ref.arena_at != cursor) {
      return Status::InvalidArgument("v2 arena section at unexpected offset");
    }
    if (ref.arena_bytes > image.size() - cursor) {
      return Status::InvalidArgument("v2 arena section out of bounds");
    }
    cursor += AlignPage(ref.arena_bytes);
    if (cursor > image.size()) {
      return Status::InvalidArgument("v2 sections exceed the image");
    }
    entries_sum += ref.entries;
    value_bytes_sum += ref.arena_bytes;
  }
  if (cursor != image.size()) {
    return Status::InvalidArgument("trailing bytes after v2 sections");
  }
  if (entries_sum != total_entries || value_bytes_sum != total_value_bytes) {
    return Status::InvalidArgument("v2 header totals disagree with sections");
  }
  return Status::Ok();
}

Status VerifyV2SectionChecksums(ConstByteSpan image,
                                const std::vector<V2ShardRef>& refs,
                                int threads) {
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(ResolveThreadCount(threads, "RSSE_BUILD_THREADS")),
      refs.size()));
  std::vector<Status> worker_status(static_cast<size_t>(workers));
  RunWorkers(workers, [&](int w) {
    for (size_t s = static_cast<size_t>(w); s < refs.size();
         s += static_cast<size_t>(workers)) {
      const V2ShardRef& ref = refs[s];
      if (Crc32c(image.data() + ref.slots_at, ref.slots_bytes) !=
              ref.slots_crc ||
          Crc32c(image.data() + ref.arena_at, ref.arena_bytes) !=
              ref.arena_crc) {
        worker_status[static_cast<size_t>(w)] =
            Status::InvalidArgument("v2 shard section checksum mismatch");
        return;
      }
    }
  });
  for (const Status& s : worker_status) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

Bytes ShardedEmm::SerializeV2(uint8_t kind, uint64_t epoch) const {
  const size_t shard_count = shards_.size();
  const size_t header_bytes = V2HeaderBytes(shard_count);
  std::vector<V2ShardRef> refs(shard_count);
  size_t cursor = header_bytes;
  uint64_t total_entries = 0;
  uint64_t total_value_bytes = 0;
  for (size_t s = 0; s < shard_count; ++s) {
    V2ShardRef& ref = refs[s];
    ref.slots_at = cursor;
    ref.slots_bytes = shards_[s].V2SlotsBytes();
    cursor += AlignPage(ref.slots_bytes);
    ref.arena_at = cursor;
    ref.arena_bytes = shards_[s].V2ArenaBytes();
    cursor += AlignPage(ref.arena_bytes);
    ref.entries = shards_[s].size();
    total_entries += ref.entries;
    total_value_bytes += ref.arena_bytes;
  }

  Bytes out(cursor, 0);
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(ResolveThreadCount(0, "RSSE_BUILD_THREADS")),
      std::max<size_t>(shard_count, 1)));
  RunWorkers(workers, [&](int w) {
    for (size_t s = static_cast<size_t>(w); s < shard_count;
         s += static_cast<size_t>(workers)) {
      V2ShardRef& ref = refs[s];
      shards_[s].WriteV2Sections(
          ByteSpan(out.data() + ref.slots_at, ref.slots_bytes),
          ByteSpan(out.data() + ref.arena_at, ref.arena_bytes));
      ref.slots_crc = Crc32c(out.data() + ref.slots_at, ref.slots_bytes);
      ref.arena_crc = Crc32c(out.data() + ref.arena_at, ref.arena_bytes);
    }
  });

  std::memcpy(out.data(), kV2Magic, sizeof(kV2Magic));
  StoreU32Le(out.data() + 8, kV2Version);
  out[12] = kind;
  StoreU64Le(out.data() + 16, epoch);
  StoreU32Le(out.data() + 24, static_cast<uint32_t>(shard_count));
  StoreU64Le(out.data() + 32, total_entries);
  StoreU64Le(out.data() + 40, total_value_bytes);
  for (size_t s = 0; s < shard_count; ++s) {
    uint8_t* e = out.data() + kV2FixedHeaderBytes + kV2SectionEntryBytes * s;
    StoreU64Le(e, refs[s].slots_at);
    StoreU64Le(e + 8, refs[s].slots_bytes);
    StoreU64Le(e + 16, refs[s].arena_at);
    StoreU64Le(e + 24, refs[s].arena_bytes);
    StoreU64Le(e + 32, refs[s].entries);
    StoreU32Le(e + 40, refs[s].slots_crc);
    StoreU32Le(e + 44, refs[s].arena_crc);
  }
  const size_t table_end =
      kV2FixedHeaderBytes + kV2SectionEntryBytes * shard_count;
  StoreU32Le(out.data() + table_end, Crc32c(out.data(), table_end));
  return out;
}

Result<ShardedEmm> ShardedEmm::OpenMappedImage(
    std::shared_ptr<const MappedFile> file, size_t offset, size_t length) {
  if (file == nullptr || offset > file->size() ||
      length > file->size() - offset) {
    return Status::InvalidArgument("v2 image range exceeds the mapping");
  }
  const ConstByteSpan image = file->bytes().subspan(offset, length);
  std::vector<V2ShardRef> refs;
  RSSE_RETURN_IF_ERROR(ParseV2Header(image, refs));
  RSSE_RETURN_IF_ERROR(VerifyV2SectionChecksums(image, refs, 0));
  ShardedEmm store(refs.size());
  for (size_t s = 0; s < refs.size(); ++s) {
    const V2ShardRef& ref = refs[s];
    Result<sse::FlatLabelMap> shard = sse::FlatLabelMap::View(
        image.subspan(ref.slots_at, ref.slots_bytes),
        image.subspan(ref.arena_at, ref.arena_bytes), ref.entries,
        ref.arena_bytes);
    if (!shard.ok()) return shard.status();
    store.shards_[s] = std::move(*shard);
  }
  // Probes jump label-hash-randomly across slot tables and arenas: tell
  // the kernel not to read ahead, so the page cache holds only the probed
  // working set. (Set after the checksum pass, which reads sequentially.)
  file->AdviseRandom(offset, length);
  store.mapping_ = std::move(file);
  return store;
}

Result<ShardedEmm> ShardedEmm::OpenMapped(const std::string& path) {
  Result<std::shared_ptr<const MappedFile>> file = MappedFile::Open(path);
  if (!file.ok()) return file.status();
  const size_t size = (*file)->size();
  return OpenMappedImage(std::move(*file), 0, size);
}

Result<ShardedEmm> ShardedEmm::LoadV2(ConstByteSpan image, int threads,
                                      bool verify_checksums) {
  std::vector<V2ShardRef> refs;
  RSSE_RETURN_IF_ERROR(ParseV2Header(image, refs));
  if (verify_checksums) {
    RSSE_RETURN_IF_ERROR(VerifyV2SectionChecksums(image, refs, threads));
  }
  ShardedEmm store(refs.size());
  std::vector<Status> shard_status(refs.size());
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(ResolveThreadCount(threads, "RSSE_BUILD_THREADS")),
      refs.size()));
  RunWorkers(workers, [&](int w) {
    for (size_t s = static_cast<size_t>(w); s < refs.size();
         s += static_cast<size_t>(workers)) {
      const V2ShardRef& ref = refs[s];
      Result<sse::FlatLabelMap> shard = sse::FlatLabelMap::View(
          image.subspan(ref.slots_at, ref.slots_bytes),
          image.subspan(ref.arena_at, ref.arena_bytes), ref.entries,
          ref.arena_bytes);
      if (!shard.ok()) {
        shard_status[s] = shard.status();
        continue;
      }
      shard->EnsureHeap();
      store.shards_[s] = std::move(*shard);
    }
  });
  for (const Status& s : shard_status) {
    if (!s.ok()) return s;
  }
  return store;
}

uint64_t ShardedEmm::MappedBytes() const {
  uint64_t bytes = 0;
  for (const sse::FlatLabelMap& s : shards_) bytes += s.MappedBytes();
  return bytes;
}

uint64_t ShardedEmm::HeapBytes() const {
  uint64_t bytes = 0;
  for (const sse::FlatLabelMap& s : shards_) bytes += s.HeapBytes();
  return bytes;
}

}  // namespace rsse::shard
