#ifndef RSSE_RSSE_NAIVE_VALUE_H_
#define RSSE_RSSE_NAIVE_VALUE_H_

#include "common/bytes.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "rsse/local_backend.h"
#include "rsse/scheme.h"
#include "shard/sharded_emm.h"

namespace rsse {

/// The naive variant opening Section 5: one keyword per domain value with
/// *standard PRF* key derivation, and a query of size R simply maps to R
/// per-value SSE tokens. Storage O(n), search O(R + r), no false positives —
/// but query size O(R), which is exactly the drawback the DPRF-based
/// Constant schemes remove (they ship O(log R) GGM seeds instead).
/// Kept as an ablation baseline for the query-cost experiments.
class NaiveValueScheme : public RangeScheme, public TrapdoorGenerator {
 public:
  explicit NaiveValueScheme(uint64_t rng_seed = 1);

  SchemeId id() const override { return SchemeId::kNaivePerValue; }
  Status Build(const Dataset& dataset) override;
  size_t IndexSizeBytes() const override { return index_.SizeBytes(); }

  /// Owner half: one token per covered value — the O(R) query size.
  Result<TokenSet> Trapdoor(const Range& r) override;
  TrapdoorGenerator& trapdoors() override { return *this; }
  std::vector<StoreRef> stores() const override {
    return {{kPrimaryStore, StoreKind::kEmm, &index_}};
  }

 private:
  Rng rng_;
  Bytes master_key_;
  shard::ShardedEmm index_;
};

}  // namespace rsse

#endif  // RSSE_RSSE_NAIVE_VALUE_H_
