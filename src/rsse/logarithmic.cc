#include "rsse/logarithmic.h"

#include "cover/brc.h"
#include "cover/urc.h"
#include "crypto/random.h"
#include "sse/keyword_keys.h"

namespace rsse {

LogarithmicScheme::LogarithmicScheme(CoverTechnique technique,
                                     uint64_t rng_seed)
    : technique_(technique), rng_(rng_seed) {}

Status LogarithmicScheme::Build(const Dataset& dataset) {
  domain_ = dataset.domain();
  if (domain_.size == 0) return Status::InvalidArgument("empty domain");
  bits_ = domain_.Bits();
  master_key_ = crypto::GenerateKey();

  // D' of Section 6.1: replicate each tuple under every dyadic node on the
  // path from the root to its value.
  sse::PlainMultimap postings;
  for (const Record& rec : dataset.records()) {
    for (const DyadicNode& node : PathToRoot(rec.attr, bits_)) {
      postings[node.EncodeKeyword()].push_back(sse::EncodeIdPayload(rec.id));
    }
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

std::vector<DyadicNode> LogarithmicScheme::Cover(const Range& r) const {
  return technique_ == CoverTechnique::kBrc ? BestRangeCover(r, bits_)
                                            : UniformRangeCover(r, bits_);
}

Result<TokenSet> LogarithmicScheme::Trapdoor(const Range& r) {
  TokenSet tokens;
  sse::PrfKeyDeriver deriver(master_key_);
  for (const DyadicNode& node : Cover(r)) {
    tokens.keyword.push_back(deriver.Derive(node.EncodeKeyword()));
  }
  rng_.Shuffle(tokens.keyword);
  return tokens;
}

}  // namespace rsse
