#include "server/remote_backend.h"

#include <utility>

#include "rsse/local_backend.h"
#include "sse/encrypted_multimap.h"

namespace rsse::server {

Result<rsse::ResolvedIds> RemoteBackend::Resolve(
    const rsse::TokenSet& tokens) {
  rsse::ResolvedIds out;

  // GGM subtree tokens: the batched SearchBatch path, whose frame names no
  // slot (the server expands them against the primary store).
  if (!tokens.ggm.empty()) {
    RSSE_RETURN_IF_ERROR(rsse::CheckGgmSlot(tokens.store));
    EmmClient::BatchQuery query;
    query.query_id = 0;
    query.tokens = tokens.ggm;
    Result<EmmClient::BatchOutcome> outcome = client_.SearchBatch({query});
    if (!outcome.ok()) return outcome.status();
    out.skipped_decrypts +=
        static_cast<size_t>(outcome->done.skipped_decrypts);
    auto it = outcome->ids.find(0);
    if (it != outcome->ids.end()) {
      out.payloads.reserve(out.payloads.size() + it->second.size());
      for (uint64_t id : it->second) {
        out.payloads.push_back(sse::EncodeIdPayload(id));
      }
    }
  }

  // Keyword tokens / opaque trapdoors: one SearchKeyword batch against the
  // token set's store slot.
  if (!tokens.keyword.empty() || !tokens.opaque.empty()) {
    SearchKeywordRequest req;
    req.store_id = tokens.store;
    SearchKeywordRequest::Query query;
    query.query_id = 0;
    query.tokens.reserve(tokens.keyword.size() + tokens.opaque.size());
    for (const sse::KeywordKeys& keys : tokens.keyword) {
      WireKeywordToken t;
      t.kind = 0;
      t.a = keys.label_key;
      t.b = keys.value_key;
      query.tokens.push_back(std::move(t));
    }
    for (const Bytes& trapdoor : tokens.opaque) {
      WireKeywordToken t;
      t.kind = 1;
      t.a = trapdoor;
      query.tokens.push_back(std::move(t));
    }
    req.queries.push_back(std::move(query));
    Result<EmmClient::KeywordOutcome> outcome = client_.SearchKeyword(req);
    if (!outcome.ok()) return outcome.status();
    out.skipped_decrypts +=
        static_cast<size_t>(outcome->done.skipped_decrypts);
    auto it = outcome->payloads.find(0);
    if (it != outcome->payloads.end()) {
      for (Bytes& payload : it->second) {
        out.payloads.push_back(std::move(payload));
      }
    }
  }
  return out;
}

Status InstallServerSetup(EmmClient& client,
                          const rsse::ServerSetup& setup) {
  for (const rsse::StoreSetup& store : setup.stores) {
    SetupStoreRequest req;
    req.store_id = store.store;
    req.kind = static_cast<uint8_t>(store.kind);
    req.index_blob = store.index_blob;
    req.gate_blob = store.gate_blob;
    Result<SetupResponse> resp = client.SetupStore(req);
    if (!resp.ok()) return resp.status();
  }
  return Status::Ok();
}

}  // namespace rsse::server
