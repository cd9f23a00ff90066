#include "pb/pb_scheme.h"

#include "cover/brc.h"
#include "cover/dyadic.h"
#include "crypto/random.h"

namespace rsse::pb {

PbScheme::PbScheme(uint64_t rng_seed, double fp_rate)
    : rng_(rng_seed), fp_rate_(fp_rate) {}

Bytes PbScheme::ElementTrapdoor(const Bytes& element) const {
  return trapdoor_prf_->EvalTrunc(element, crypto::kLambdaBytes);
}

int64_t PbScheme::BuildNode(const std::vector<std::vector<Bytes>>& trapdoors,
                            size_t lo, size_t hi,
                            const std::vector<Record>& records) {
  const uint64_t expected =
      static_cast<uint64_t>(hi - lo) * trapdoors[lo].size();
  const int64_t index = tree_.AddNode(FilterTreeIndex::Node{
      BloomFilter(expected, fp_rate_,
                  /*node_salt=*/static_cast<uint64_t>(tree_.NodeCount())),
      -1, -1, 0, false});
  FilterTreeIndex::Node& node = tree_.node(index);
  for (size_t i = lo; i < hi; ++i) {
    for (const Bytes& t : trapdoors[i]) node.filter.Insert(t);
  }
  if (hi - lo == 1) {
    node.is_leaf = true;
    node.leaf_id = records[lo].id;
    return index;
  }
  const size_t mid = lo + (hi - lo) / 2;
  int64_t left = BuildNode(trapdoors, lo, mid, records);
  int64_t right = BuildNode(trapdoors, mid, hi, records);
  tree_.LinkChildren(index, left, right);
  return index;
}

Status PbScheme::Build(const Dataset& dataset) {
  domain_ = dataset.domain();
  if (domain_.size == 0) return Status::InvalidArgument("empty domain");
  bits_ = domain_.Bits();
  trapdoor_prf_ = std::make_unique<crypto::Prf>(crypto::GenerateKey());

  // Random permutation of the tuples before the top-down split.
  std::vector<Record> records = dataset.records();
  rng_.Shuffle(records);

  // Precompute each tuple's DR(d) trapdoors (the log m + 1 dyadic ranges
  // covering its value); every ancestor node inserts the same trapdoors
  // into its own salted filter.
  std::vector<std::vector<Bytes>> trapdoors(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    for (const DyadicNode& dr : PathToRoot(records[i].attr, bits_)) {
      trapdoors[i].push_back(ElementTrapdoor(dr.EncodeKeyword()));
    }
  }

  tree_ = FilterTreeIndex();
  tree_.Reserve(2 * records.size());
  tree_.SetRoot(records.empty()
                    ? -1
                    : BuildNode(trapdoors, 0, records.size(), records));
  built_ = true;
  return Status::Ok();
}

Result<rsse::TokenSet> PbScheme::Trapdoor(const Range& r) {
  rsse::TokenSet tokens;
  for (const DyadicNode& node : BestRangeCover(r, bits_)) {
    tokens.opaque.push_back(ElementTrapdoor(node.EncodeKeyword()));
  }
  return tokens;
}

std::unique_ptr<RangeScheme> MakePbScheme(uint64_t rng_seed, double fp_rate) {
  return std::make_unique<PbScheme>(rng_seed, fp_rate);
}

}  // namespace rsse::pb
