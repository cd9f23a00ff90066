#ifndef RSSE_RSSE_LOCAL_BACKEND_H_
#define RSSE_RSSE_LOCAL_BACKEND_H_

#include <vector>

#include "pb/filter_tree.h"
#include "rsse/party.h"
#include "shard/sharded_emm.h"
#include "sse/emm_codec.h"

namespace rsse {

class BloomLabelGate;

/// In-process `SearchBackend`: the paper's simulated server, resolving
/// token sets directly against the scheme's own stores. Schemes register
/// their store(s) per slot; `Resolve` then mirrors exactly what a remote
/// `rsse_serverd` does for the same TokenSet — expand GGM subtrees and
/// probe the dictionary (strided across `search_threads` workers), run the
/// counter-probe search per keyword token through the store's
/// pre-decryption gate, or descend the PB filter tree for opaque
/// trapdoors.
///
/// Thread-compatibility: registration (`Clear`/`Add*Store`/
/// `SetSearchThreads`) and `Resolve` must be externally serialized — this
/// class holds no lock of its own. The only internal concurrency is
/// Resolve's fork/join over `RunWorkers`, which needs none: worker `t`
/// writes only the strided slots `per_token[t], per_token[t + threads],
/// ...` and its own `per_worker[t]` scratch (disjoint by construction,
/// published by RunWorkers' join), and reads the registered stores purely
/// through their const search paths.
class LocalBackend : public SearchBackend {
 public:
  LocalBackend() = default;

  /// Drops all registered stores (schemes re-register before each query,
  /// so a moved scheme never serves stale store pointers).
  void Clear() { slots_.clear(); }

  /// Registers an encrypted-dictionary store at `store`. `gate` may be
  /// null; when set, it is consulted before every candidate decryption.
  void AddEmmStore(uint32_t store, const shard::ShardedEmm* emm,
                   const sse::LabelGate* gate);

  /// Registers a PB filter-tree store at `store`.
  void AddFilterTreeStore(uint32_t store, const pb::FilterTreeIndex* tree);

  /// Worker threads for multi-token GGM resolution (0 reads
  /// RSSE_SEARCH_THREADS, defaulting to 1).
  void SetSearchThreads(int threads) { search_threads_ = threads; }

  Result<ResolvedIds> Resolve(const TokenSet& tokens) override;

 private:
  struct Slot {
    uint32_t store = kPrimaryStore;
    const shard::ShardedEmm* emm = nullptr;
    const sse::LabelGate* gate = nullptr;
    const pb::FilterTreeIndex* tree = nullptr;
  };

  const Slot* FindSlot(uint32_t store) const;

  std::vector<Slot> slots_;
  int search_threads_ = 0;
};

/// Boilerplate shared by the single-dictionary schemes (Constant,
/// Logarithmic, SRC, Quadratic, Naive): re-registers the scheme's one
/// store at the primary slot and returns the backend.
SearchBackend& ConfigureSingleEmmBackend(LocalBackend& backend,
                                         const shard::ShardedEmm& emm,
                                         const sse::LabelGate* gate = nullptr,
                                         int search_threads = 0);

/// The matching `ExportServerSetup` body: one primary-slot EMM store,
/// with the gate blob riding along when a gate is installed.
/// FAILED_PRECONDITION when `built` is false.
Result<ServerSetup> SingleEmmServerSetup(bool built,
                                         const shard::ShardedEmm& emm,
                                         const BloomLabelGate* gate = nullptr);

/// Loads a shipped encrypted-dictionary blob (`ShardedEmm::Serialize`
/// output, as `ExportServerSetup` ships it) with its stored shard layout,
/// using `threads` workers. The load path of local tools, so every tool
/// that accepts an index accepts exactly what an owner ships.
Result<shard::ShardedEmm> LoadServableIndex(const Bytes& blob,
                                            int threads = 0);

}  // namespace rsse

#endif  // RSSE_RSSE_LOCAL_BACKEND_H_
