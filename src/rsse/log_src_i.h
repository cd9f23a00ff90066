#ifndef RSSE_RSSE_LOG_SRC_I_H_
#define RSSE_RSSE_LOG_SRC_I_H_

#include <memory>

#include "common/bytes.h"
#include "common/rng.h"
#include "cover/tdag.h"
#include "data/dataset.h"
#include "rsse/bloom_gate.h"
#include "rsse/local_backend.h"
#include "rsse/scheme.h"
#include "shard/sharded_emm.h"

namespace rsse {

/// Logarithmic-SRC-i (Section 6.3): the interactive double-index refinement
/// of Logarithmic-SRC that caps false positives at O(R + r) even under
/// heavy skew.
///
///  * I1 — built over TDAG1 on the *domain*; one constant-size document
///    `(value, [first, last])` per distinct value, where [first, last] is
///    the positions of that value's tuples in the attr-sorted order.
///  * I2 — built over TDAG2 on the *sorted tuple positions* 0..n-1 (ties
///    shuffled); documents are the tuple ids.
///
/// Query protocol (two rounds): SRC token for the query range on I1 →
/// owner decrypts the (value, position-range) pairs, keeps those whose
/// value satisfies the query, merges them into one contiguous position
/// range w' → SRC token for w' on I2 → server returns the tuple ids.
/// I1 is hosted at the primary store slot, I2 at the secondary one; the
/// round-2 token set is the dependent batch `ContinueTrapdoor` derives
/// from round 1's resolved documents.
class LogarithmicSrcIScheme : public RangeScheme, public TrapdoorGenerator {
 public:
  /// `pad_quantum` > 0 pads every posting list of both indexes to a
  /// multiple of the quantum with dummy entries, as in Logarithmic-SRC.
  explicit LogarithmicSrcIScheme(uint64_t rng_seed = 1,
                                 uint64_t pad_quantum = 0);

  SchemeId id() const override { return SchemeId::kLogarithmicSrcI; }
  Status Build(const Dataset& dataset) override;
  size_t IndexSizeBytes() const override {
    return i1_.SizeBytes() + i2_.SizeBytes();
  }

  /// Owner half, round 1: the SRC token for the query range on I1.
  Result<TokenSet> Trapdoor(const Range& r) override;

  /// Owner half, round 2: refine round 1's (value, position-range)
  /// documents into the merged position range w' and emit the dependent
  /// SRC token on I2 — or end the protocol when no value qualified.
  Result<std::optional<TokenSet>> ContinueTrapdoor(
      const Range& r, int completed_rounds, const ResolvedIds& prev) override;

  TrapdoorGenerator& trapdoors() override { return *this; }
  std::vector<StoreRef> stores() const override {
    return {{kPrimaryStore, StoreKind::kEmm, &i1_, gate1_.get()},
            {kSecondaryStore, StoreKind::kEmm, &i2_, gate2_.get()}};
  }

  /// Size of the auxiliary index I1 alone; its dependence on the number of
  /// distinct values explains the Gowalla-vs-USPS gap in Fig. 5 / Table 2.
  size_t AuxiliaryIndexSizeBytes() const { return i1_.SizeBytes(); }

  /// Installs Bloom pre-decryption gates over both indexes (one filter
  /// each), built during `Build`: the server skips decrypting entries the
  /// filters reject (padding dummies); `QueryResult::skipped_decrypts`
  /// totals the savings across both rounds. Same opt-in perf/leakage trade
  /// as Logarithmic-SRC's gate; only effective with `pad_quantum` > 0.
  /// Call before `Build`. Both gates ship with `ExportServerSetup`.
  void EnableBloomGate(double fp_rate = 0.01) { bloom_fp_rate_ = fp_rate; }

  /// Bytes of the shipped Bloom gates (0 when disabled).
  size_t BloomGateSizeBytes() const {
    return (gate1_ == nullptr ? 0 : gate1_->SizeBytes()) +
           (gate2_ == nullptr ? 0 : gate2_->SizeBytes());
  }

 private:
  Rng rng_;
  uint64_t pad_quantum_;
  std::unique_ptr<Tdag> tdag1_;  // over the domain
  std::unique_ptr<Tdag> tdag2_;  // over sorted tuple positions
  Bytes key1_;
  Bytes key2_;
  shard::ShardedEmm i1_;
  shard::ShardedEmm i2_;
  double bloom_fp_rate_ = 0.0;  // 0 disables the gates
  std::unique_ptr<BloomLabelGate> gate1_;
  std::unique_ptr<BloomLabelGate> gate2_;
  uint64_t n_ = 0;
};

}  // namespace rsse

#endif  // RSSE_RSSE_LOG_SRC_I_H_
