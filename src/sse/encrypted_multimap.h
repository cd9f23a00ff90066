#ifndef RSSE_SSE_ENCRYPTED_MULTIMAP_H_
#define RSSE_SSE_ENCRYPTED_MULTIMAP_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "sse/emm_codec.h"
#include "sse/keyword_keys.h"

namespace rsse::sse {

/// Plaintext postings to be indexed: keyword -> list of opaque payloads.
/// RSSE schemes encode tuple ids (and, for Logarithmic-SRC-i's I1,
/// (value, position-range) documents) into the payloads. The encrypted
/// dictionary built from them is `shard::ShardedEmm` (one shard is the
/// paper's flat Π_bas dictionary); its entry codec is sse/emm_codec.h.
using PlainMultimap =
    std::unordered_map<Bytes, std::vector<Bytes>, BytesHash>;

/// Optional index padding: every posting list is rounded up to the next
/// multiple of `quantum` with dummy entries; the paper's Quadratic
/// scheme uses padding so the index shape depends only on (n, m) and not on
/// the data distribution.
struct PaddingPolicy {
  /// 0 disables padding.
  uint64_t quantum = 0;
};

/// Encodes/decodes a uint64 document id as a payload (the common case).
Bytes EncodeIdPayload(uint64_t id);
std::optional<uint64_t> DecodeIdPayload(const Bytes& payload);

}  // namespace rsse::sse

#endif  // RSSE_SSE_ENCRYPTED_MULTIMAP_H_
