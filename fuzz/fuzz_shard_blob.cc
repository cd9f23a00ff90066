/// Fuzzes the v1 framed-blob deserializer: ShardedEmm::Deserialize over an
/// arbitrary byte string — the format a SetupStore frame delivers off the
/// wire and LoadServableIndex reads for local tools. The header, per-shard
/// section framing, and entry tables are all attacker-reachable; Decode
/// failures must come back as INVALID_ARGUMENT, never as a crash or an
/// allocation sized by a corrupt length field. A blob that does
/// deserialize is probed the way a hosted store would be.
#include <cstdint>

#include "common/bytes.h"
#include "shard/sharded_emm.h"
#include "sse/keyword_keys.h"

using rsse::Bytes;
using rsse::shard::ShardedEmm;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const Bytes blob(data, data + size);
  auto loaded = ShardedEmm::Deserialize(blob, /*threads=*/1);
  if (!loaded.ok()) return 0;

  ShardedEmm& emm = *loaded;
  (void)emm.EntryCount();
  (void)emm.SizeBytes();
  rsse::sse::KeywordKeys keys;
  keys.label_key.assign(16, 0);
  keys.value_key.assign(16, 0);
  for (size_t i = 0; i < 16 && i < size; ++i) keys.label_key[i] = data[i];
  (void)emm.Search(keys);
  return 0;
}
