#include "rsse/quadratic.h"

#include "crypto/random.h"
#include "sse/keyword_keys.h"

namespace rsse {

QuadraticScheme::QuadraticScheme(uint64_t rng_seed, uint64_t pad_quantum)
    : rng_(rng_seed), pad_quantum_(pad_quantum) {}

Bytes QuadraticScheme::RangeKeyword(const Range& r) {
  Bytes out;
  out.reserve(1 + 16);
  AppendByte(out, /*tag=*/0x03);  // quadratic range-keyword namespace
  AppendUint64(out, r.lo);
  AppendUint64(out, r.hi);
  return out;
}

Status QuadraticScheme::Build(const Dataset& dataset) {
  domain_ = dataset.domain();
  if (domain_.size == 0) return Status::InvalidArgument("empty domain");
  if (domain_.size > kMaxDomain) {
    return Status::InvalidArgument(
        "Quadratic is restricted to tiny domains (O(n m^2) storage)");
  }
  master_key_ = crypto::GenerateKey();

  // Replicate each tuple into every range containing its value: the
  // augmented dataset D' of Section 4.
  sse::PlainMultimap postings;
  for (const Record& rec : dataset.records()) {
    for (uint64_t lo = 0; lo <= rec.attr; ++lo) {
      for (uint64_t hi = rec.attr; hi < domain_.size; ++hi) {
        postings[RangeKeyword(Range{lo, hi})].push_back(
            sse::EncodeIdPayload(rec.id));
      }
    }
  }
  for (auto& [keyword, payloads] : postings) rng_.Shuffle(payloads);

  sse::PrfKeyDeriver deriver(master_key_);
  shard::ShardOptions options;
  options.padding = sse::PaddingPolicy{pad_quantum_};
  Result<shard::ShardedEmm> index =
      shard::ShardedEmm::Build(postings, deriver, options);
  if (!index.ok()) return index.status();
  index_ = std::move(index).value();
  built_ = true;
  return Status::Ok();
}

Result<TokenSet> QuadraticScheme::Trapdoor(const Range& r) {
  TokenSet tokens;
  sse::PrfKeyDeriver deriver(master_key_);
  tokens.keyword.push_back(deriver.Derive(RangeKeyword(r)));
  return tokens;
}

}  // namespace rsse
