#include "rsse/log_src_i.h"

#include <algorithm>

#include "crypto/random.h"
#include "sse/keyword_keys.h"

namespace rsse {

namespace {

/// I1 document: (domain value, [first, last] position range), 24 bytes.
Bytes EncodeValueRange(uint64_t value, uint64_t first, uint64_t last) {
  Bytes out;
  out.reserve(24);
  AppendUint64(out, value);
  AppendUint64(out, first);
  AppendUint64(out, last);
  return out;
}

struct ValueRange {
  uint64_t value = 0;
  uint64_t first = 0;
  uint64_t last = 0;
};

bool DecodeValueRange(const Bytes& payload, ValueRange& out) {
  if (payload.size() != 24) return false;
  out.value = ReadUint64(payload, 0);
  out.first = ReadUint64(payload, 8);
  out.last = ReadUint64(payload, 16);
  return true;
}

int BitsForCount(uint64_t n) {
  int bits = 1;
  while ((uint64_t{1} << bits) < n) ++bits;
  return bits;
}

}  // namespace

LogarithmicSrcIScheme::LogarithmicSrcIScheme(uint64_t rng_seed,
                                             uint64_t pad_quantum)
    : rng_(rng_seed), pad_quantum_(pad_quantum) {}

Status LogarithmicSrcIScheme::Build(const Dataset& dataset) {
  domain_ = dataset.domain();
  if (domain_.size == 0) return Status::InvalidArgument("empty domain");
  n_ = dataset.size();
  key1_ = crypto::GenerateKey();
  key2_ = crypto::GenerateKey();
  tdag1_ = std::make_unique<Tdag>(domain_.Bits());
  tdag2_ = std::make_unique<Tdag>(BitsForCount(n_));

  // Sort tuples on A with random tie order ("prior to constructing TDAG2,
  // we randomly shuffle the documents corresponding to the same keyword").
  std::vector<Record> sorted = dataset.records();
  rng_.Shuffle(sorted);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Record& a, const Record& b) {
                     return a.attr < b.attr;
                   });

  // I1: one (value, position-range) document per distinct value, indexed
  // under the TDAG1 nodes covering the value.
  sse::PlainMultimap postings1;
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1].attr == sorted[i].attr) ++j;
    const Bytes doc = EncodeValueRange(sorted[i].attr, i, j);
    for (const TdagNode& node : tdag1_->Cover(sorted[i].attr)) {
      postings1[node.EncodeKeyword()].push_back(doc);
    }
    i = j + 1;
  }
  for (auto& [keyword, payloads] : postings1) rng_.Shuffle(payloads);

  // I2: tuple ids indexed under the TDAG2 nodes covering their sorted
  // position.
  sse::PlainMultimap postings2;
  for (size_t p = 0; p < sorted.size(); ++p) {
    for (const TdagNode& node : tdag2_->Cover(p)) {
      postings2[node.EncodeKeyword()].push_back(
          sse::EncodeIdPayload(sorted[p].id));
    }
  }
  for (auto& [keyword, payloads] : postings2) rng_.Shuffle(payloads);

  shard::ShardOptions options;
  options.padding = sse::PaddingPolicy{pad_quantum_};
  sse::PrfKeyDeriver deriver1(key1_);
  Result<shard::ShardedEmm> i1 =
      shard::ShardedEmm::Build(postings1, deriver1, options);
  if (!i1.ok()) return i1.status();
  i1_ = std::move(i1).value();

  sse::PrfKeyDeriver deriver2(key2_);
  Result<shard::ShardedEmm> i2 =
      shard::ShardedEmm::Build(postings2, deriver2, options);
  if (!i2.ok()) return i2.status();
  i2_ = std::move(i2).value();

  if (bloom_fp_rate_ > 0.0) {
    size_t real1 = 0;
    for (const auto& [keyword, payloads] : postings1) {
      real1 += payloads.size();
    }
    size_t real2 = 0;
    for (const auto& [keyword, payloads] : postings2) {
      real2 += payloads.size();
    }
    gate1_ = std::make_unique<BloomLabelGate>(real1, bloom_fp_rate_,
                                              /*salt=*/0x535243692d31ull);
    RSSE_RETURN_IF_ERROR(gate1_->Populate(postings1, deriver1));
    gate2_ = std::make_unique<BloomLabelGate>(real2, bloom_fp_rate_,
                                              /*salt=*/0x535243692d32ull);
    RSSE_RETURN_IF_ERROR(gate2_->Populate(postings2, deriver2));
  }

  built_ = true;
  return Status::Ok();
}

Result<TokenSet> LogarithmicSrcIScheme::Trapdoor(const Range& r) {
  // Round 1: SRC token on TDAG1 for the query range, probing I1.
  TokenSet tokens;
  tokens.store = kPrimaryStore;
  sse::PrfKeyDeriver deriver1(key1_);
  tokens.keyword.push_back(
      deriver1.Derive(tdag1_->SingleRangeCover(r).EncodeKeyword()));
  return tokens;
}

Result<std::optional<TokenSet>> LogarithmicSrcIScheme::ContinueTrapdoor(
    const Range& r, int completed_rounds, const ResolvedIds& prev) {
  if (completed_rounds != 1) return std::optional<TokenSet>();

  // Keep qualifying (value, position-range) documents and merge them into
  // the single contiguous position range w'.
  bool any = false;
  uint64_t first = 0;
  uint64_t last = 0;
  for (const Bytes& payload : prev.payloads) {
    ValueRange vr;
    if (!DecodeValueRange(payload, vr)) continue;
    if (!r.Contains(vr.value)) continue;
    if (!any) {
      first = vr.first;
      last = vr.last;
      any = true;
    } else {
      first = std::min(first, vr.first);
      last = std::max(last, vr.last);
    }
  }
  if (!any) {
    // No distinct value of the dataset falls in the range: done after one
    // round with an empty (exact) result.
    return std::optional<TokenSet>();
  }

  // Round 2: SRC token on TDAG2 for w', probing I2.
  TokenSet tokens;
  tokens.store = kSecondaryStore;
  sse::PrfKeyDeriver deriver2(key2_);
  tokens.keyword.push_back(deriver2.Derive(
      tdag2_->SingleRangeCover(Range{first, last}).EncodeKeyword()));
  return std::optional<TokenSet>(std::move(tokens));
}

}  // namespace rsse
