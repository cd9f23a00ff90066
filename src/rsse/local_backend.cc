#include "rsse/local_backend.h"

#include "rsse/bloom_gate.h"
#include "sse/encrypted_multimap.h"
#include "sse/keyword_keys.h"

namespace rsse {

StoreSetup StoreRef::Serialize() const {
  StoreSetup setup;
  setup.store = slot;
  setup.kind = kind;
  if (kind == StoreKind::kFilterTree) {
    setup.index_blob = tree->Serialize();
  } else {
    setup.index_blob = emm->Serialize();
    if (gate != nullptr) setup.gate_blob = gate->Serialize();
  }
  return setup;
}

Status CheckGgmSlot(uint32_t slot) {
  if (slot == kPrimaryStore) return Status::Ok();
  return Status::InvalidArgument(
      "GGM tokens resolve against the primary store only");
}

Status CheckServes(const StoreRef& store, TokenFamily family) {
  if (family == TokenFamily::kGgm) {
    RSSE_RETURN_IF_ERROR(CheckGgmSlot(store.slot));
  }
  if (!store.hosted()) {
    return Status::InvalidArgument("no store hosted at the requested slot");
  }
  if (store.kind == StoreKind::kFilterTree) {
    if (family == TokenFamily::kOpaque) return Status::Ok();
    return Status::InvalidArgument(
        "filter-tree stores resolve opaque trapdoors only");
  }
  if (family != TokenFamily::kOpaque) return Status::Ok();
  return Status::InvalidArgument(
      "encrypted-dictionary stores cannot resolve opaque trapdoors");
}

void ResolveUnit(const StoreRef& store, const WorkUnit& unit,
                 ResolveScratch& scratch, std::vector<Bytes>& sink,
                 ResolveStats& stats) {
  if (unit.trapdoors != nullptr) {
    for (uint64_t id : store.tree->Search(*unit.trapdoors)) {
      sink.push_back(sse::EncodeIdPayload(id));
    }
    return;
  }
  const sse::LabelGate* gate = store.gate;
  auto find = [&store](const Label& label) { return store.emm->Find(label); };
  if (unit.keyword != nullptr) {
    sse::SearchEntries(*unit.keyword, find, sink, gate, &stats.search);
    return;
  }
  if (!GgmDprf::ExpandInto(*unit.ggm, scratch.leaves)) return;
  stats.leaves_searched += scratch.leaves.size();
  for (const Label& leaf : scratch.leaves) {
    sse::KeysFromSharedSecretInto(ConstByteSpan(leaf.data(), leaf.size()),
                                  scratch.leaf_keys);
    sse::SearchEntries(scratch.leaf_keys, find, sink, gate, &stats.search);
  }
}

Result<ResolvedIds> LocalBackend::Resolve(const TokenSet& tokens) {
  StoreRef store{tokens.store};
  for (const StoreRef& candidate : stores_) {
    if (candidate.slot == tokens.store) store = candidate;
  }
  if (!tokens.ggm.empty()) {
    RSSE_RETURN_IF_ERROR(CheckServes(store, TokenFamily::kGgm));
  }
  if (!tokens.keyword.empty()) {
    RSSE_RETURN_IF_ERROR(CheckServes(store, TokenFamily::kKeyword));
  }
  if (!tokens.opaque.empty()) {
    RSSE_RETURN_IF_ERROR(CheckServes(store, TokenFamily::kOpaque));
  }

  ResolvedIds out;
  ResolveScratch scratch;
  ResolveStats stats;
  for (const GgmDprf::Token& token : tokens.ggm) {
    ResolveUnit(store, {.ggm = &token}, scratch, out.payloads, stats);
  }
  for (const sse::KeywordKeys& token : tokens.keyword) {
    ResolveUnit(store, {.keyword = &token}, scratch, out.payloads, stats);
  }
  if (!tokens.opaque.empty()) {
    ResolveUnit(store, {.trapdoors = &tokens.opaque}, scratch, out.payloads,
                stats);
  }
  out.skipped_decrypts = stats.search.skipped_decrypts;
  return out;
}

Result<shard::ShardedEmm> LoadServableIndex(const Bytes& blob, int threads) {
  return shard::ShardedEmm::Deserialize(blob, threads);
}

}  // namespace rsse
