#ifndef RSSE_RSSE_QUADRATIC_H_
#define RSSE_RSSE_QUADRATIC_H_

#include <cstdint>
#include <memory>

#include "common/bytes.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "rsse/local_backend.h"
#include "rsse/scheme.h"
#include "shard/sharded_emm.h"

namespace rsse {

/// The Quadratic baseline (Section 4): every one of the O(m^2) sub-ranges of
/// the domain is a keyword; each tuple is replicated into all ranges
/// containing its value; queries are single-keyword SSE searches.
///
/// Security is maximal for the framework (only n, m leak from the index
/// when padding is enabled) but storage is O(n * m^2) — the scheme exists
/// to convey the framework and as a tiny-domain reference; `Build` rejects
/// domains larger than `kMaxDomain`.
class QuadraticScheme : public RangeScheme, public TrapdoorGenerator {
 public:
  /// Guardrail against accidentally materializing an O(n m^2) index.
  static constexpr uint64_t kMaxDomain = 4096;

  /// `rng_seed` drives posting-list shuffling. `pad_quantum` > 0 enables
  /// the distribution-hiding padding discussed in the paper (posting lists
  /// padded to multiples of the quantum).
  explicit QuadraticScheme(uint64_t rng_seed = 1, uint64_t pad_quantum = 0);

  SchemeId id() const override { return SchemeId::kQuadratic; }
  Status Build(const Dataset& dataset) override;
  size_t IndexSizeBytes() const override { return index_.SizeBytes(); }

  /// Owner half: the query range itself is the single keyword.
  Result<TokenSet> Trapdoor(const Range& r) override;
  TrapdoorGenerator& trapdoors() override { return *this; }
  std::vector<StoreRef> stores() const override {
    return {{kPrimaryStore, StoreKind::kEmm, &index_}};
  }

 private:
  static Bytes RangeKeyword(const Range& r);

  Rng rng_;
  uint64_t pad_quantum_;
  Bytes master_key_;
  shard::ShardedEmm index_;
};

}  // namespace rsse

#endif  // RSSE_RSSE_QUADRATIC_H_
