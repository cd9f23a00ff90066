#ifndef RSSE_SSE_EMM_CODEC_H_
#define RSSE_SSE_EMM_CODEC_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"
#include "crypto/hmac_prf.h"
#include "sse/keyword_keys.h"

namespace rsse::sse {

/// Entry-level codec of the Π_bas encrypted dictionary: label derivation
/// (F(K1, counter)), payload framing (real/dummy marker byte, padding) and
/// the counter-probe search loop. The store, `shard::ShardedEmm`, keeps
/// these entries in every layout it has (build, v1 blob, v2 image), and
/// the owner-side update path emits them for the server to insert.
///
/// Both directions work arena-at-a-time: build stages a whole keyword's
/// padded posting list into scratch arenas, derives every label in one
/// fused multi-lane PRF pass and encrypts every value in one batch AES
/// call; search batch-decrypts runs of consecutive counter hits the same
/// way. The wire format is byte-identical to the entry-at-a-time codec.

/// First plaintext byte of a stored payload: real posting vs padding dummy.
inline constexpr uint8_t kEmmRealMarker = 0x00;
inline constexpr uint8_t kEmmDummyMarker = 0x01;

/// Posting-list length after padding to a multiple of `pad_quantum`
/// (0 disables padding; an empty list pads up to one full quantum).
inline uint64_t PaddedPostingTotal(size_t payload_count, uint64_t pad_quantum) {
  uint64_t total = payload_count;
  if (pad_quantum > 0) {
    total = (total + pad_quantum - 1) / pad_quantum * pad_quantum;
    if (total == 0) total = pad_quantum;
  }
  return total;
}

/// Exact storage footprint of an index: entry count and total ciphertext
/// bytes after padding. `ComputeKeywordEmmSizing` is the per-keyword cost
/// model that the batch staging path reserves from; `ComputeEmmSizing`
/// sums it over an input multimap. The store's single-shard build and the
/// batch staging path both reserve from this one model, so the staging
/// arenas can never diverge from the store.
struct EmmSizing {
  size_t entries = 0;
  size_t value_bytes = 0;
};

inline EmmSizing ComputeKeywordEmmSizing(const std::vector<Bytes>& payloads,
                                         uint64_t pad_quantum) {
  EmmSizing sizing;
  const uint64_t total = PaddedPostingTotal(payloads.size(), pad_quantum);
  sizing.entries = total;
  for (const Bytes& p : payloads) {
    // One marker byte precedes every stored payload.
    sizing.value_bytes += crypto::Aes128Cbc::CiphertextSize(1 + p.size());
  }
  sizing.value_bytes +=
      (total - payloads.size()) * crypto::Aes128Cbc::CiphertextSize(1);
  return sizing;
}

inline EmmSizing ComputeEmmSizing(
    const std::unordered_map<Bytes, std::vector<Bytes>, BytesHash>& postings,
    uint64_t pad_quantum) {
  EmmSizing sizing;
  for (const auto& [keyword, payloads] : postings) {
    const EmmSizing kw = ComputeKeywordEmmSizing(payloads, pad_quantum);
    sizing.entries += kw.entries;
    sizing.value_bytes += kw.value_bytes;
  }
  return sizing;
}

/// Optional pre-decryption filter consulted by the search loop. When a gate
/// is installed, an entry whose label it rejects is skipped without paying
/// the AES decryption — the gate promises no false negatives for real
/// entries, so skipped entries can only be padding dummies (or, for
/// approximate gates, are re-checked by the post-decrypt marker anyway).
class LabelGate {
 public:
  virtual ~LabelGate() = default;

  /// May the entry stored under `label` hold a real (non-dummy) payload?
  virtual bool MayContainReal(const Label& label) const = 0;
};

/// Per-search instrumentation (bench_false_positives reports these).
struct SearchStats {
  /// Dictionary probes issued, including the terminating miss.
  size_t probes = 0;
  /// Ciphertexts actually decrypted.
  size_t decrypts = 0;
  /// Entries a `LabelGate` rejected before decryption.
  size_t skipped_decrypts = 0;

  void Add(const SearchStats& o) {
    probes += o.probes;
    decrypts += o.decrypts;
    skipped_decrypts += o.skipped_decrypts;
  }
};

/// Reusable staging arenas for the batch build path: one instance per
/// build worker, recycled across keywords so the steady state allocates
/// nothing (the vectors only ever grow to the largest posting list seen).
struct EmmBuildScratch {
  std::vector<Label> labels;
  Bytes plaintexts;
  std::vector<uint32_t> plain_lens;
  Bytes ciphertexts;
};

/// Encrypts the (padded) postings of one keyword arena-at-a-time:
///   1. every label F(K1, c), c = 0..total, in one fused multi-lane PRF
///      pass over the cached key midstates;
///   2. the padded posting list staged into one scratch plaintext arena
///      (marker byte + payload per entry);
///   3. one batch AES call — single cached key schedule, IVs from one
///      pooled draw — into a scratch ciphertext arena reserved from
///      `ComputeKeywordEmmSizing`, the same cost model the stores use;
///   4. each ciphertext handed to `emit(label, exact_size)`, which returns
///      the destination span (table arena or shard staging bucket).
template <typename Emit>
Status EncryptKeywordEntries(const Bytes& keyword,
                             const std::vector<Bytes>& payloads,
                             const KeywordKeyDeriver& deriver,
                             uint64_t pad_quantum, EmmBuildScratch& scratch,
                             Emit&& emit) {
  const KeywordKeys keys = deriver.Derive(keyword);
  const crypto::Prf label_prf(keys.label_key);
  if (!label_prf.ok()) {
    return Status::Internal("label PRF initialization failed");
  }
  const EmmSizing sizing = ComputeKeywordEmmSizing(payloads, pad_quantum);
  const size_t total = sizing.entries;

  scratch.labels.resize(total);
  if (total > 0 &&
      !label_prf.EvalCountersInto(
          0, total, ByteSpan(scratch.labels[0].data(), total * kLabelBytes),
          kLabelBytes)) {
    return Status::Internal("label PRF evaluation failed");
  }

  scratch.plaintexts.clear();
  scratch.plaintexts.reserve(sizing.value_bytes);  // over-reserve: no regrow
  scratch.plain_lens.clear();
  scratch.plain_lens.reserve(total);
  for (size_t c = 0; c < total; ++c) {
    if (c < payloads.size()) {
      scratch.plaintexts.push_back(kEmmRealMarker);
      Append(scratch.plaintexts, payloads[c]);
      scratch.plain_lens.push_back(
          static_cast<uint32_t>(1 + payloads[c].size()));
    } else {
      scratch.plaintexts.push_back(kEmmDummyMarker);
      scratch.plain_lens.push_back(1);
    }
  }

  // Grow-only: shrinking and regrowing would value-initialize (memset) a
  // region the batch encryption fully overwrites anyway.
  if (scratch.ciphertexts.size() < sizing.value_bytes) {
    scratch.ciphertexts.resize(sizing.value_bytes);
  }
  size_t written = 0;
  Status s = crypto::Aes128Cbc::EncryptManyInto(
      keys.value_key, scratch.plaintexts, scratch.plain_lens,
      ByteSpan(scratch.ciphertexts.data(), sizing.value_bytes), &written);
  if (!s.ok()) return s;
  if (written != sizing.value_bytes) {
    return Status::Internal("batch encryption diverged from the cost model");
  }

  size_t offset = 0;
  for (size_t c = 0; c < total; ++c) {
    const size_t ct_size =
        crypto::Aes128Cbc::CiphertextSize(scratch.plain_lens[c]);
    ByteSpan dst = emit(scratch.labels[c], ct_size);
    if (dst.size() < ct_size) {
      return Status::Internal("emit sink returned an undersized span");
    }
    std::memcpy(dst.data(), scratch.ciphertexts.data() + offset, ct_size);
    offset += ct_size;
  }
  return Status::Ok();
}

/// The counter-probe search loop shared by every storage layout: derives
/// labels F(K1, c) for c = 0, 1, ... in fused chunks and looks each up
/// through `find` (`std::optional<ConstByteSpan> find(const Label&)`),
/// stopping at the first miss. Hits are gathered and decrypted in batches
/// (all counters of one keyword share the value key, so one ECB pass per
/// batch replaces a per-probe EVP round). Real payloads are appended to
/// `results`; dummies are dropped; a failed decryption (wrong token) ends
/// the search as in the entry-at-a-time loop. With a `gate`, entries the
/// gate rejects skip decryption.
template <typename FindFn>
void SearchEntries(const KeywordKeys& token, FindFn&& find,
                   std::vector<Bytes>& results,
                   const LabelGate* gate = nullptr,
                   SearchStats* stats = nullptr) {
  const crypto::Prf label_prf(token.label_key);
  if (!label_prf.ok()) return;
  // 8 labels per fused derivation (two x4 lanes / one x8); up to 32
  // gathered ciphertexts per batch decryption.
  constexpr size_t kLabelChunk = 8;
  constexpr size_t kDecryptBatch = 32;
  Label labels[kLabelChunk];
  Bytes cts;                      // gathered ciphertexts, packed
  std::vector<uint32_t> ct_lens;  // per-gathered-entry ciphertext sizes
  Bytes plains;                   // batch plaintexts (padded spacing)
  std::vector<uint32_t> plain_lens;

  // Decrypts the gathered batch and appends its real payloads; false on a
  // failed decryption (wrong token — the caller stops probing).
  auto flush = [&]() {
    if (ct_lens.empty()) return true;
    if (stats != nullptr) stats->decrypts += ct_lens.size();
    plains.resize(cts.size() - ct_lens.size() * crypto::Aes128Cbc::kBlockBytes);
    plain_lens.resize(ct_lens.size());
    if (!crypto::Aes128Cbc::DecryptManyInto(token.value_key, cts, ct_lens,
                                            plains, plain_lens)
             .ok()) {
      return false;
    }
    size_t offset = 0;
    for (size_t i = 0; i < ct_lens.size(); ++i) {
      const uint32_t len = plain_lens[i];
      if (len == crypto::Aes128Cbc::kBadEntry || len == 0) return false;
      if (plains[offset] != kEmmDummyMarker) {
        results.emplace_back(
            plains.begin() + static_cast<long>(offset + 1),
            plains.begin() + static_cast<long>(offset + len));
      }
      offset += ct_lens[i] - crypto::Aes128Cbc::kBlockBytes;
    }
    cts.clear();
    ct_lens.clear();
    return true;
  };

  for (uint64_t base = 0;; base += kLabelChunk) {
    if (!label_prf.EvalCountersInto(
            base, kLabelChunk, ByteSpan(labels[0].data(), sizeof(labels)),
            kLabelBytes)) {
      break;
    }
    bool miss = false;
    for (size_t j = 0; j < kLabelChunk; ++j) {
      if (stats != nullptr) ++stats->probes;
      std::optional<ConstByteSpan> ct = find(labels[j]);
      if (!ct.has_value()) {
        miss = true;
        break;
      }
      if (gate != nullptr && !gate->MayContainReal(labels[j])) {
        // The gate has no false negatives, so this entry is a padding
        // dummy; skip the decryption it would have cost.
        if (stats != nullptr) ++stats->skipped_decrypts;
        continue;
      }
      if (ct->size() < 2 * crypto::Aes128Cbc::kBlockBytes ||
          ct->size() % crypto::Aes128Cbc::kBlockBytes != 0) {
        // Structurally malformed stored value (only reachable via foreign
        // Update entries): treat it as terminal like the per-entry loop
        // did, but still deliver the valid entries gathered before it.
        flush();
        return;
      }
      cts.insert(cts.end(), ct->begin(), ct->end());
      ct_lens.push_back(static_cast<uint32_t>(ct->size()));
      if (ct_lens.size() >= kDecryptBatch && !flush()) return;
    }
    if (miss) break;
  }
  flush();
}

}  // namespace rsse::sse

#endif  // RSSE_SSE_EMM_CODEC_H_
