#ifndef RSSE_RSSE_CONSTANT_H_
#define RSSE_RSSE_CONSTANT_H_

#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "dprf/ggm_dprf.h"
#include "rsse/local_backend.h"
#include "rsse/scheme.h"
#include "shard/sharded_emm.h"

namespace rsse {

/// Index-build key deriver of the Constant schemes: the SSE keys of domain
/// value v's keyword (its 8-byte big-endian encoding) come from the DPRF
/// leaf value of v, so that delegated GGM seeds unlock exactly the covered
/// values ("use a DPRF instead of a PRF", Section 5). The constructor
/// derives the leaf values of all given values up front, in one
/// shared-prefix walk (`GgmDprf::NodeSeedsInto`), into a sorted table;
/// `Derive` is a lookup in that read-only table plus the public KDF, so one
/// deriver serves all parallel build workers.
class DprfKeyDeriver : public sse::KeywordKeyDeriver {
 public:
  /// `values` may come in any order and repeat. `dprf` must outlive the
  /// deriver.
  DprfKeyDeriver(const GgmDprf& dprf, std::vector<uint64_t> values);

  /// Equals `KeysFromSharedSecret(dprf.Eval(v))` for the value v that `w`
  /// encodes; a value outside the table takes a root-to-leaf `Eval`.
  sse::KeywordKeys Derive(const Bytes& w) const override;

 private:
  const GgmDprf& dprf_;
  std::vector<uint64_t> values_;  // sorted, distinct
  std::vector<Label> secrets_;    // secrets_[i] = leaf value of values_[i]
};

/// Constant-BRC / Constant-URC (Section 5): one keyword per domain value —
/// O(n) storage — with the per-keyword SSE keys derived from a *delegatable*
/// PRF. A query of size R ships the O(log R) GGM seeds of its BRC/URC cover;
/// the server expands them into the R leaf DPRF values and uses each as the
/// SSE token for one domain value. Search is O(R + r); no false positives.
///
/// The schemes are secure only for non-intersecting queries (an inherent
/// DPRF limitation, Section 5); `EnableIntersectionGuard` turns on the
/// application-level history check the paper suggests.
class ConstantScheme : public RangeScheme, public TrapdoorGenerator {
 public:
  ConstantScheme(CoverTechnique technique, uint64_t rng_seed = 1);

  SchemeId id() const override {
    return technique_ == CoverTechnique::kBrc ? SchemeId::kConstantBrc
                                              : SchemeId::kConstantUrc;
  }
  Status Build(const Dataset& dataset) override;
  size_t IndexSizeBytes() const override { return index_.SizeBytes(); }

  /// Owner half: delegates the GGM seeds of the BRC/URC cover (and runs
  /// the intersection guard, when enabled, before any token leaves).
  Result<TokenSet> Trapdoor(const Range& r) override;
  TrapdoorGenerator& trapdoors() override { return *this; }
  std::vector<StoreRef> stores() const override {
    return {{kPrimaryStore, StoreKind::kEmm, &index_}};
  }

  /// Enforce the paper's non-intersecting-query constraint: a query that
  /// intersects any previously issued one fails with FAILED_PRECONDITION.
  void EnableIntersectionGuard() { guard_enabled_ = true; }

  /// Shard count for the server-side encrypted dictionary. 0 reads the
  /// RSSE_SHARDS environment variable, defaulting to 1. Must be set before
  /// `Build`.
  void SetShards(int shards) { shards_ = shards; }

  /// Server-side store (exposed for tests/benches).
  const shard::ShardedEmm& index() const { return index_; }

  /// Owner-side delegation only (exposed for tests/benches that need the
  /// raw tokens). `r` is clipped to the domain, as `QueryVia` clips it; an
  /// empty clip returns no tokens and draws nothing from the shuffle RNG.
  std::vector<GgmDprf::Token> Delegate(const Range& r);

 private:
  CoverTechnique technique_;
  Rng rng_;
  int bits_ = 0;
  std::unique_ptr<GgmDprf> dprf_;
  shard::ShardedEmm index_;
  bool guard_enabled_ = false;
  int shards_ = 0;
  std::vector<Range> history_;
};

}  // namespace rsse

#endif  // RSSE_RSSE_CONSTANT_H_
