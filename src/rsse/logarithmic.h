#ifndef RSSE_RSSE_LOGARITHMIC_H_
#define RSSE_RSSE_LOGARITHMIC_H_

#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "cover/dyadic.h"
#include "data/dataset.h"
#include "rsse/local_backend.h"
#include "rsse/scheme.h"
#include "shard/sharded_emm.h"

namespace rsse {

/// Logarithmic-BRC / Logarithmic-URC (Section 6.1): every tuple is
/// replicated under the O(log m) dyadic-node keywords on its root-to-leaf
/// path; a query issues one standard SSE token per BRC/URC cover node.
/// Storage O(n log m), query O(log R), search O(log R + r), no false
/// positives, and — unlike the Constant schemes — no DPRF, so the only
/// structural leakage is the partitioning of the result ids into
/// per-cover-node groups.
class LogarithmicScheme : public RangeScheme, public TrapdoorGenerator {
 public:
  LogarithmicScheme(CoverTechnique technique, uint64_t rng_seed = 1);

  SchemeId id() const override {
    return technique_ == CoverTechnique::kBrc ? SchemeId::kLogarithmicBrc
                                              : SchemeId::kLogarithmicUrc;
  }
  Status Build(const Dataset& dataset) override;
  size_t IndexSizeBytes() const override { return index_.SizeBytes(); }

  /// Owner half: one SSE token per cover node, randomly permuted before
  /// leaving.
  Result<TokenSet> Trapdoor(const Range& r) override;
  TrapdoorGenerator& trapdoors() override { return *this; }
  std::vector<StoreRef> stores() const override {
    return {{kPrimaryStore, StoreKind::kEmm, &index_}};
  }

  /// The cover this scheme would use for `r` (exposed for leakage tests).
  std::vector<DyadicNode> Cover(const Range& r) const;

 private:
  CoverTechnique technique_;
  Rng rng_;
  int bits_ = 0;
  Bytes master_key_;
  shard::ShardedEmm index_;
};

}  // namespace rsse

#endif  // RSSE_RSSE_LOGARITHMIC_H_
