#ifndef RSSE_RSSE_LOCAL_BACKEND_H_
#define RSSE_RSSE_LOCAL_BACKEND_H_

#include <utility>
#include <vector>

#include "pb/filter_tree.h"
#include "rsse/party.h"
#include "shard/sharded_emm.h"
#include "sse/emm_codec.h"

namespace rsse {

class BloomLabelGate;

/// One hosted store as the server half sees it: the slot it answers at,
/// how it reads tokens, and what answers them — an encrypted dictionary
/// (`emm`, with an optional Bloom pre-decryption `gate`) or the PB filter
/// tree (`tree`). A scheme lists its stores once (`RangeScheme::stores`);
/// `ExportServerSetup` ships that list and `Query` resolves against it,
/// and `rsse_serverd` hands out the same view of every slot it hosts. The
/// pointers do not own. `StoreRef{slot}` stands for a slot nothing is
/// hosted at.
struct StoreRef {
  uint32_t slot = kPrimaryStore;
  StoreKind kind = StoreKind::kEmm;
  const shard::ShardedEmm* emm = nullptr;
  const BloomLabelGate* gate = nullptr;
  const pb::FilterTreeIndex* tree = nullptr;

  bool hosted() const { return emm != nullptr || tree != nullptr; }

  /// The SetupStore form of this store: slot, kind, index and gate blobs.
  StoreSetup Serialize() const;
};

/// The token families of a `TokenSet`, one per kind of work unit.
enum class TokenFamily : uint8_t { kGgm, kKeyword, kOpaque };

/// GGM subtree tokens address the primary slot only: the wire's
/// SearchBatch frame names no slot. Returns that refusal for any other
/// slot; `CheckServes` runs it first, and `RemoteBackend` runs it before
/// sending anything.
Status CheckGgmSlot(uint32_t slot);

/// Decides whether `store` serves tokens of `family`: nothing at an
/// unhosted slot, GGM and keyword tokens at an encrypted dictionary,
/// opaque trapdoors at a filter tree. Every refusal is worded here once,
/// so an in-process query and a served one fail alike.
Status CheckServes(const StoreRef& store, TokenFamily family);

/// What resolution adds up across units (`SearchDone` reports the gate
/// skips and the leaves).
struct ResolveStats {
  /// Dictionary probes, decryptions and gate skips.
  sse::SearchStats search;
  /// GGM leaves expanded and searched.
  uint64_t leaves_searched = 0;
};

/// Buffers reused across units: a subtree's leaf seeds and one leaf's
/// derived key pair.
struct ResolveScratch {
  std::vector<Label> leaves;
  sse::KeywordKeys leaf_keys;
};

/// One unit of the server's work; exactly one member is set.
struct WorkUnit {
  /// A GGM subtree token: each leaf seed is one domain value's keyword.
  const GgmDprf::Token* ggm = nullptr;
  /// One keyword token.
  const sse::KeywordKeys* keyword = nullptr;
  /// One query's PB trapdoors: one filter-tree descent.
  const std::vector<Bytes>* trapdoors = nullptr;
};

/// The server's Search, the one routine both `LocalBackend` and
/// `rsse_serverd` resolve every token through. Runs `unit` against
/// `store`, which must serve its family (`CheckServes`), and appends the
/// decrypted payloads to `sink` in server order:
///  - a GGM token expands into its leaves; each leaf seed derives its
///    value's key pair, which counter-probes the dictionary through the
///    store's gate (a token whose level does not expand yields nothing);
///  - a keyword token is one such counter-probe search;
///  - PB trapdoors descend the filter tree, and each reached leaf's id is
///    appended as an id payload.
/// Probe, decrypt and skip counts and the leaves searched add up in
/// `stats`.
void ResolveUnit(const StoreRef& store, const WorkUnit& unit,
                 ResolveScratch& scratch, std::vector<Bytes>& sink,
                 ResolveStats& stats);

/// In-process `SearchBackend` over a scheme's stores: the paper's
/// simulated server. `Resolve` checks every family a token set carries
/// with `CheckServes`, then runs `ResolveUnit` over its units in order on
/// the calling thread — GGM tokens, keyword tokens, then the opaque
/// trapdoors as one unit. The stores must outlive the backend; it holds
/// no lock, so concurrent `Resolve` calls need the stores' const search
/// paths only.
class LocalBackend : public SearchBackend {
 public:
  explicit LocalBackend(std::vector<StoreRef> stores)
      : stores_(std::move(stores)) {}

  Result<ResolvedIds> Resolve(const TokenSet& tokens) override;

 private:
  std::vector<StoreRef> stores_;
};

/// Loads a shipped encrypted-dictionary blob (`ShardedEmm::Serialize`
/// output, as `ExportServerSetup` ships it) with its stored shard layout,
/// using `threads` workers. The load path of local tools, so every tool
/// that accepts an index accepts exactly what an owner ships.
Result<shard::ShardedEmm> LoadServableIndex(const Bytes& blob,
                                            int threads = 0);

}  // namespace rsse

#endif  // RSSE_RSSE_LOCAL_BACKEND_H_
