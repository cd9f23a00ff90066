#include "rsse/local_backend.h"

#include <algorithm>
#include <utility>

#include "common/env.h"
#include "common/parallel.h"
#include "rsse/bloom_gate.h"
#include "sse/keyword_keys.h"

namespace rsse {

void LocalBackend::AddEmmStore(uint32_t store, const shard::ShardedEmm* emm,
                               const sse::LabelGate* gate) {
  slots_.push_back(Slot{store, emm, gate, nullptr});
}

void LocalBackend::AddFilterTreeStore(uint32_t store,
                                      const pb::FilterTreeIndex* tree) {
  slots_.push_back(Slot{store, nullptr, nullptr, tree});
}

const LocalBackend::Slot* LocalBackend::FindSlot(uint32_t store) const {
  for (const Slot& slot : slots_) {
    if (slot.store == store) return &slot;
  }
  return nullptr;
}

Result<ResolvedIds> LocalBackend::Resolve(const TokenSet& tokens) {
  const Slot* slot = FindSlot(tokens.store);
  if (slot == nullptr) {
    return Status::InvalidArgument("no store registered at the requested "
                                   "slot");
  }
  ResolvedIds out;

  if (slot->tree != nullptr) {
    if (!tokens.ggm.empty() || !tokens.keyword.empty()) {
      return Status::InvalidArgument(
          "filter-tree stores resolve opaque trapdoors only");
    }
    for (uint64_t id : slot->tree->Search(tokens.opaque)) {
      out.payloads.push_back(sse::EncodeIdPayload(id));
    }
    return out;
  }

  if (!tokens.opaque.empty()) {
    return Status::InvalidArgument(
        "encrypted-dictionary stores cannot resolve opaque trapdoors");
  }

  // GGM subtree tokens: covering nodes are independent, so they stride
  // across workers; within a worker the leaf buffer and derived key pair
  // are reused across expansions.
  if (!tokens.ggm.empty()) {
    const int threads = static_cast<int>(std::min<size_t>(
        static_cast<size_t>(
            ResolveThreadCount(search_threads_, "RSSE_SEARCH_THREADS")),
        tokens.ggm.size()));
    std::vector<std::vector<Bytes>> per_token(tokens.ggm.size());
    std::vector<sse::SearchStats> per_worker(
        static_cast<size_t>(std::max(threads, 1)));
    auto worker = [&](int t) {
      std::vector<Label> leaves;
      sse::KeywordKeys keys;
      for (size_t i = static_cast<size_t>(t); i < tokens.ggm.size();
           i += static_cast<size_t>(threads)) {
        if (!GgmDprf::ExpandInto(tokens.ggm[i], leaves)) continue;
        for (const Label& leaf : leaves) {
          sse::KeysFromSharedSecretInto(
              ConstByteSpan(leaf.data(), leaf.size()), keys);
          std::vector<Bytes> hits = slot->emm->Search(
              keys, slot->gate, &per_worker[static_cast<size_t>(t)]);
          for (Bytes& hit : hits) per_token[i].push_back(std::move(hit));
        }
      }
    };
    RunWorkers(threads, worker);
    for (std::vector<Bytes>& hits : per_token) {
      for (Bytes& hit : hits) out.payloads.push_back(std::move(hit));
    }
    for (const sse::SearchStats& stats : per_worker) {
      out.skipped_decrypts += stats.skipped_decrypts;
    }
  }

  for (const sse::KeywordKeys& token : tokens.keyword) {
    sse::SearchStats stats;
    std::vector<Bytes> hits = slot->emm->Search(token, slot->gate, &stats);
    for (Bytes& hit : hits) out.payloads.push_back(std::move(hit));
    out.skipped_decrypts += stats.skipped_decrypts;
  }
  return out;
}

SearchBackend& ConfigureSingleEmmBackend(LocalBackend& backend,
                                         const shard::ShardedEmm& emm,
                                         const sse::LabelGate* gate,
                                         int search_threads) {
  backend.Clear();
  backend.SetSearchThreads(search_threads);
  backend.AddEmmStore(kPrimaryStore, &emm, gate);
  return backend;
}

Result<ServerSetup> SingleEmmServerSetup(bool built,
                                         const shard::ShardedEmm& emm,
                                         const BloomLabelGate* gate) {
  if (!built) return Status::FailedPrecondition("Build() not called");
  ServerSetup setup;
  StoreSetup store;
  store.store = kPrimaryStore;
  store.kind = StoreKind::kEmm;
  store.index_blob = emm.Serialize();
  if (gate != nullptr) store.gate_blob = gate->Serialize();
  setup.stores.push_back(std::move(store));
  return setup;
}

Result<shard::ShardedEmm> LoadServableIndex(const Bytes& blob, int threads) {
  return shard::ShardedEmm::Deserialize(blob, threads);
}

}  // namespace rsse
