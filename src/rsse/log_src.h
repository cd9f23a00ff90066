#ifndef RSSE_RSSE_LOG_SRC_H_
#define RSSE_RSSE_LOG_SRC_H_

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

/// Logarithmic-SRC (Section 6.2): tuples are replicated under the TDAG
/// nodes covering their value; a query is covered by the *single* lowest
/// TDAG node containing it (SRC), so it degenerates to one single-keyword
/// SSE search — constant query size and no result-partitioning or ordering
/// leakage. The price is false positives: O(R) on uniform data (Lemma 1)
/// but up to O(n) under heavy skew, which motivates Logarithmic-SRC-i.
class LogarithmicSrcScheme : public RangeScheme, public TrapdoorGenerator {
 public:
  /// `pad_quantum` > 0 enables the padding the paper's security argument
  /// assumes ("the scheme degenerates to SSE, inheriting its security —
  /// assuming the padding technique discussed in Quadratic"): every TDAG
  /// node's posting list is padded to a multiple of the quantum, so list
  /// shapes leak less about the distribution over A.
  explicit LogarithmicSrcScheme(uint64_t rng_seed = 1,
                                uint64_t pad_quantum = 0);

  SchemeId id() const override { return SchemeId::kLogarithmicSrc; }
  Status Build(const Dataset& dataset) override;
  size_t IndexSizeBytes() const override { return index_.SizeBytes(); }

  /// Owner half: the single-keyword SRC token.
  Result<TokenSet> Trapdoor(const Range& r) override;
  TrapdoorGenerator& trapdoors() override { return *this; }
  std::vector<StoreRef> stores() const override {
    return {{kPrimaryStore, StoreKind::kEmm, &index_, gate_.get()}};
  }

  /// The single TDAG cover node for `r` (exposed for tests).
  TdagNode CoverNode(const Range& r) const { return tdag_->SingleRangeCover(r); }

  /// Installs a Bloom pre-decryption gate, built over the real-entry
  /// labels during `Build`: the server skips decrypting entries the filter
  /// rejects (padding dummies), reporting the savings through
  /// `QueryResult::skipped_decrypts`. Results are unchanged (no false
  /// negatives); the server learns which entries are padding, so this is
  /// an opt-in perf/leakage trade (see BloomLabelGate). Only effective
  /// with `pad_quantum` > 0. Call before `Build`. The gate ships with the
  /// index in `ExportServerSetup`, so a remote server gates identically.
  void EnableBloomGate(double fp_rate = 0.01) { bloom_fp_rate_ = fp_rate; }

  /// Bytes of the shipped Bloom gate (0 when disabled).
  size_t BloomGateSizeBytes() const {
    return gate_ == nullptr ? 0 : gate_->SizeBytes();
  }

 private:
  Rng rng_;
  uint64_t pad_quantum_;
  std::unique_ptr<Tdag> tdag_;
  Bytes master_key_;
  shard::ShardedEmm index_;
  double bloom_fp_rate_ = 0.0;  // 0 disables the gate
  std::unique_ptr<BloomLabelGate> gate_;
};

}  // namespace rsse

#endif  // RSSE_RSSE_LOG_SRC_H_
