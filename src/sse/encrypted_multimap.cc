#include "sse/encrypted_multimap.h"

namespace rsse::sse {

Bytes EncodeIdPayload(uint64_t id) {
  Bytes out;
  AppendUint64(out, id);
  return out;
}

std::optional<uint64_t> DecodeIdPayload(const Bytes& payload) {
  if (payload.size() != 8) return std::nullopt;
  return ReadUint64(payload, 0);
}

}  // namespace rsse::sse
