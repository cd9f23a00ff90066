#ifndef RSSE_PB_PB_SCHEME_H_
#define RSSE_PB_PB_SCHEME_H_

#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/hmac_prf.h"
#include "data/dataset.h"
#include "pb/filter_tree.h"
#include "rsse/local_backend.h"
#include "rsse/scheme.h"

namespace rsse::pb {

/// The basic scheme of Li et al. (PVLDB'14) — the paper's closest
/// competitor, called "PB" in the evaluation. A binary tree is built
/// top-down over a random permutation of the tuples; every node stores a
/// keyed Bloom filter over the dyadic ranges DR(d) covering the values of
/// the tuples in its half; each leaf indexes a single tuple. A query is
/// BRC-decomposed into its minimal dyadic ranges, and the server descends
/// from the root wherever a node filter claims containment of any query
/// range, returning the ids at the reached leaves.
///
/// The party split mirrors the other schemes: the owner half derives one
/// keyed trapdoor per minimal dyadic range (shipped as opaque tokens); the
/// server half is a `FilterTreeIndex` — serializable, so `rsse_serverd`
/// can host PB alongside the encrypted dictionaries.
///
/// Costs (Table 1): O(n log n log m) storage, query size O(log R), search
/// Ω(log n log R + r), O(r) false positives (inherent to Bloom filters),
/// no updates. Security: non-adaptive, trapdoor privacy not protected —
/// strictly weaker than every scheme in this library (Section 2.1).
class PbScheme : public RangeScheme, public TrapdoorGenerator {
 public:
  /// `fp_rate` is the per-node Bloom filter false-positive ratio ([26]
  /// fixes this ratio at each node). The default keeps overall false
  /// positives "very small for all range sizes" (Section 8), which is what
  /// drives PB's O(n log n log m) storage above Logarithmic-BRC/URC.
  explicit PbScheme(uint64_t rng_seed = 1, double fp_rate = 1e-6);

  SchemeId id() const override { return SchemeId::kPb; }
  Status Build(const Dataset& dataset) override;
  size_t IndexSizeBytes() const override { return tree_.SizeBytes(); }

  /// Owner half: one keyed trapdoor per minimal dyadic range.
  Result<rsse::TokenSet> Trapdoor(const Range& r) override;
  TrapdoorGenerator& trapdoors() override { return *this; }
  std::vector<StoreRef> stores() const override {
    return {{kPrimaryStore, StoreKind::kFilterTree, nullptr, nullptr, &tree_}};
  }

 private:
  /// The keyed trapdoor for one dyadic-range element.
  Bytes ElementTrapdoor(const Bytes& element) const;

  /// Recursively builds the node for `records[lo, hi)`; `trapdoors[i]` are
  /// the precomputed DR trapdoors of `records[i]`. Returns the node index.
  int64_t BuildNode(const std::vector<std::vector<Bytes>>& trapdoors,
                    size_t lo, size_t hi,
                    const std::vector<Record>& records);

  Rng rng_;
  double fp_rate_;
  int bits_ = 0;
  std::unique_ptr<crypto::Prf> trapdoor_prf_;
  FilterTreeIndex tree_;
};

/// Factory mirroring rsse::MakeScheme for the baseline.
std::unique_ptr<RangeScheme> MakePbScheme(uint64_t rng_seed = 1,
                                          double fp_rate = 1e-6);

}  // namespace rsse::pb

#endif  // RSSE_PB_PB_SCHEME_H_
