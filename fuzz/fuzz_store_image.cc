/// Fuzzes the v2 store-image loader: header + section-table validation,
/// per-section CRC checking, and the arena/offset-table reconstruction in
/// ShardedEmm::LoadV2. Both checksum modes run. The server always verifies
/// the CRCs before it serves a mapped image, so `verify_checksums=false`
/// stands in for a hostile image whose CRCs were recomputed: the
/// structural validators alone must keep it from causing out-of-bounds
/// arena offsets. A successfully loaded store is then probed (EntryCount
/// + a search with arbitrary keys) to push hostile offsets through the
/// lookup path, mirroring what a recovered server would serve.
///
/// OpenMappedImage is deliberately not called here: it requires a real
/// file mapping, and its header/section validation and checksum pass are
/// the same code LoadV2 runs — only the byte *source* differs.
#include <cstdint>

#include "common/bytes.h"
#include "shard/sharded_emm.h"
#include "sse/keyword_keys.h"

using rsse::Bytes;
using rsse::ConstByteSpan;
using rsse::shard::ShardedEmm;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const ConstByteSpan image(data, size);
  for (const bool verify : {true, false}) {
    auto loaded = ShardedEmm::LoadV2(image, /*threads=*/1, verify);
    if (!loaded.ok()) continue;
    ShardedEmm& emm = *loaded;
    (void)emm.EntryCount();
    (void)emm.SizeBytes();
    // Probe with keys derived from the input's first bytes: label
    // derivation is a PRF, so any key is as good as another for driving
    // the probe/decrypt bounds checks over whatever entries survived.
    rsse::sse::KeywordKeys keys;
    keys.label_key.assign(16, 0);
    keys.value_key.assign(16, 0);
    for (size_t i = 0; i < 16 && i < size; ++i) keys.label_key[i] = data[i];
    (void)emm.Search(keys);
  }
  return 0;
}
