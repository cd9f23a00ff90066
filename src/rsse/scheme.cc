#include "rsse/scheme.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/stats.h"
#include "sse/encrypted_multimap.h"

namespace rsse {

const char* SchemeName(SchemeId id) {
  switch (id) {
    case SchemeId::kQuadratic:
      return "Quadratic";
    case SchemeId::kConstantBrc:
      return "Constant-BRC";
    case SchemeId::kConstantUrc:
      return "Constant-URC";
    case SchemeId::kLogarithmicBrc:
      return "Logarithmic-BRC";
    case SchemeId::kLogarithmicUrc:
      return "Logarithmic-URC";
    case SchemeId::kLogarithmicSrc:
      return "Logarithmic-SRC";
    case SchemeId::kLogarithmicSrcI:
      return "Logarithmic-SRC-i";
    case SchemeId::kPb:
      return "PB (Li et al.)";
    case SchemeId::kNaivePerValue:
      return "Naive-PerValue";
  }
  return "Unknown";
}

Result<ServerSetup> RangeScheme::ExportServerSetup() const {
  if (!built_) return Status::FailedPrecondition("Build() not called");
  ServerSetup setup;
  for (const StoreRef& store : stores()) {
    setup.stores.push_back(store.Serialize());
  }
  return setup;
}

Result<QueryResult> RangeScheme::Query(const Range& r) {
  LocalBackend backend(stores());
  return QueryVia(backend, r);
}

Result<QueryResult> RangeScheme::QueryVia(SearchBackend& backend,
                                          const Range& query) {
  if (!built_) return Status::FailedPrecondition("Build() not called");
  Range r = query;
  if (!ClipRangeToDomain(domain_, r)) return QueryResult{};

  QueryResult result;
  TrapdoorGenerator& owner = trapdoors();

  // Owner: round-1 trapdoors.
  WallTimer trapdoor_timer;
  Result<TokenSet> first = owner.Trapdoor(r);
  result.trapdoor_nanos += trapdoor_timer.ElapsedNanos();
  if (!first.ok()) return first.status();

  // Protocol rounds: resolve at the server, then ask the owner for the
  // dependent next round (SRC-i's refinement) until it declines.
  ResolvedIds last;
  std::optional<TokenSet> tokens = std::move(*first);
  int rounds = 0;
  while (tokens.has_value()) {
    ++rounds;
    result.rounds = rounds;
    result.token_count += tokens->TokenCount();
    result.token_bytes += tokens->TokenBytes();

    WallTimer search_timer;
    Result<ResolvedIds> resolved = backend.Resolve(*tokens);
    result.search_nanos += search_timer.ElapsedNanos();
    if (!resolved.ok()) return resolved.status();
    result.skipped_decrypts += resolved->skipped_decrypts;
    last = std::move(*resolved);

    trapdoor_timer.Reset();
    Result<std::optional<TokenSet>> next =
        owner.ContinueTrapdoor(r, rounds, last);
    result.trapdoor_nanos += trapdoor_timer.ElapsedNanos();
    if (!next.ok()) return next.status();
    tokens = std::move(*next);
  }

  // Owner post-filter: the final round's payloads decode to tuple ids
  // (non-id payloads — e.g. SRC-i round-1 documents when no value
  // qualified — decode to nothing).
  for (const Bytes& payload : last.payloads) {
    if (auto id = sse::DecodeIdPayload(payload); id.has_value()) {
      result.ids.push_back(*id);
    }
  }
  return result;
}

std::vector<uint64_t> FilterIdsToRange(const Dataset& dataset,
                                       const std::vector<uint64_t>& ids,
                                       const Range& r) {
  std::unordered_map<uint64_t, uint64_t> attr_by_id;
  attr_by_id.reserve(dataset.size());
  for (const Record& rec : dataset.records()) attr_by_id[rec.id] = rec.attr;
  std::vector<uint64_t> out;
  out.reserve(ids.size());
  for (uint64_t id : ids) {
    auto it = attr_by_id.find(id);
    if (it != attr_by_id.end() && r.Contains(it->second)) out.push_back(id);
  }
  return out;
}

bool ClipRangeToDomain(const Domain& domain, Range& r) {
  if (domain.size == 0 || r.lo >= domain.size || r.hi < r.lo) return false;
  r.hi = std::min(r.hi, domain.size - 1);
  return true;
}

}  // namespace rsse
