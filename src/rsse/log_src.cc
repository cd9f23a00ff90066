#include "rsse/log_src.h"

#include "crypto/random.h"
#include "sse/keyword_keys.h"

namespace rsse {

LogarithmicSrcScheme::LogarithmicSrcScheme(uint64_t rng_seed,
                                           uint64_t pad_quantum)
    : rng_(rng_seed), pad_quantum_(pad_quantum) {}

Status LogarithmicSrcScheme::Build(const Dataset& dataset) {
  domain_ = dataset.domain();
  if (domain_.size == 0) return Status::InvalidArgument("empty domain");
  tdag_ = std::make_unique<Tdag>(domain_.Bits());
  master_key_ = crypto::GenerateKey();

  sse::PlainMultimap postings;
  for (const Record& rec : dataset.records()) {
    for (const TdagNode& node : tdag_->Cover(rec.attr)) {
      postings[node.EncodeKeyword()].push_back(sse::EncodeIdPayload(rec.id));
    }
  }
  // Tuples under the same keyword are randomly permuted so the single
  // returned list carries no ordering information (Section 6.2).
  for (auto& [keyword, payloads] : postings) rng_.Shuffle(payloads);

  sse::PrfKeyDeriver deriver(master_key_);
  shard::ShardOptions options;
  options.padding = sse::PaddingPolicy{pad_quantum_};
  Result<shard::ShardedEmm> index =
      shard::ShardedEmm::Build(postings, deriver, options);
  if (!index.ok()) return index.status();
  index_ = std::move(index).value();

  if (bloom_fp_rate_ > 0.0) {
    size_t real_entries = 0;
    for (const auto& [keyword, payloads] : postings) {
      real_entries += payloads.size();
    }
    gate_ = std::make_unique<BloomLabelGate>(real_entries, bloom_fp_rate_,
                                             /*salt=*/0x5352432d31ull);
    Status s = gate_->Populate(postings, deriver);
    if (!s.ok()) return s;
  }
  built_ = true;
  return Status::Ok();
}

Result<TokenSet> LogarithmicSrcScheme::Trapdoor(const Range& r) {
  TokenSet tokens;
  sse::PrfKeyDeriver deriver(master_key_);
  tokens.keyword.push_back(
      deriver.Derive(tdag_->SingleRangeCover(r).EncodeKeyword()));
  return tokens;
}

}  // namespace rsse
