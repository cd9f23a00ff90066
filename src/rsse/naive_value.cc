#include "rsse/naive_value.h"

#include "crypto/random.h"
#include "sse/keyword_keys.h"

namespace rsse {

namespace {

Bytes ValueKeyword(uint64_t a) {
  Bytes out;
  AppendUint64(out, a);
  return out;
}

}  // namespace

NaiveValueScheme::NaiveValueScheme(uint64_t rng_seed) : rng_(rng_seed) {}

Status NaiveValueScheme::Build(const Dataset& dataset) {
  domain_ = dataset.domain();
  if (domain_.size == 0) return Status::InvalidArgument("empty domain");
  master_key_ = crypto::GenerateKey();

  sse::PlainMultimap postings;
  for (const Record& rec : dataset.records()) {
    postings[ValueKeyword(rec.attr)].push_back(sse::EncodeIdPayload(rec.id));
  }
  for (auto& [keyword, payloads] : postings) rng_.Shuffle(payloads);

  sse::PrfKeyDeriver deriver(master_key_);
  Result<shard::ShardedEmm> index =
      shard::ShardedEmm::Build(postings, deriver);
  if (!index.ok()) return index.status();
  index_ = std::move(index).value();
  built_ = true;
  return Status::Ok();
}

Result<TokenSet> NaiveValueScheme::Trapdoor(const Range& r) {
  TokenSet tokens;
  sse::PrfKeyDeriver deriver(master_key_);
  tokens.keyword.reserve(r.Size());
  for (uint64_t v = r.lo; v <= r.hi; ++v) {
    tokens.keyword.push_back(deriver.Derive(ValueKeyword(v)));
  }
  rng_.Shuffle(tokens.keyword);
  return tokens;
}

}  // namespace rsse
