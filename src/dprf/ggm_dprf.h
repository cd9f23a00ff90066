#ifndef RSSE_DPRF_GGM_DPRF_H_
#define RSSE_DPRF_GGM_DPRF_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "cover/dyadic.h"
#include "data/dataset.h"

namespace rsse {

/// Range covering technique used when delegating (Section 2.2).
enum class CoverTechnique {
  kBrc,  // best range cover: minimal dyadic intervals
  kUrc,  // uniform range cover: worst-case canonical decomposition
};

/// Delegatable PRF of Kiayias et al. (CCS'13) over a `bits`-bit domain,
/// realized with the GGM tree: the secret key seeds the root; the value of
/// leaf a = a_{l-1}..a_0 is G_{a_0}(...(G_{a_{l-1}}(key))). Knowing the seed
/// of an inner node lets anyone derive the DPRF values of all leaves below
/// it — the delegation mechanism of the Constant schemes.
class GgmDprf {
 public:
  /// A delegation token: the GGM seed of one covering node plus its level.
  /// The node *position* is deliberately absent — the receiver can expand
  /// the subtree but learns nothing about where it sits in the domain.
  struct Token {
    Bytes seed;
    int level = 0;
  };

  /// `key` is the λ-byte DPRF secret; `bits` the domain bit-width (at most
  /// 64).
  GgmDprf(Bytes key, int bits);

  int bits() const { return bits_; }

  /// Full evaluation of the DPRF at `value` (owner-side; requires the key).
  Bytes Eval(uint64_t value) const;

  /// GGM seed of an arbitrary tree node (owner-side).
  Bytes NodeSeed(const DyadicNode& node) const;

  /// Batch NodeSeed (owner-side): `out` is resized to `nodes.size()` and
  /// `out[i]` receives the GGM seed of `nodes[i]`. One walk over the union
  /// of the nodes' root paths keeps both children of every expanded
  /// ancestor on a path stack, so consecutive nodes share every common
  /// prefix: nodes sorted by position expand each ancestor exactly once
  /// (all 2^17 leaves cost 2^17 - 1 PRG calls instead of 17 · 2^17). Any
  /// order, duplicates included, yields the same per-node seeds.
  void NodeSeedsInto(std::span<const DyadicNode> nodes,
                     std::vector<Label>& out) const;

  /// Delegation: the token-generation function T of the DPRF. Covers `r`
  /// with BRC or URC and emits one token per covering node, randomly
  /// permuted (the paper's Trpdr randomly permutes the GGM values).
  std::vector<Token> Delegate(const Range& r, CoverTechnique technique,
                              Rng& rng) const;

  /// Public expansion: the C function of the DPRF. Derives the 2^level leaf
  /// DPRF values under a token, in left-to-right subtree order. Requires no
  /// secret material.
  static std::vector<Bytes> Expand(const Token& token);

  /// Zero-copy expansion into caller storage: `out` is resized to 2^level
  /// λ-byte leaf values and filled by an iterative in-place subtree walk
  /// (parent seeds are overwritten by their children — no per-level
  /// frontier vectors, no per-leaf allocations once `out` has capacity).
  /// Returns false when the token seed is not λ bytes or the level is
  /// outside [0, 62].
  static bool ExpandInto(const Token& token, std::vector<Label>& out);

 private:
  Bytes key_;
  int bits_;
};

}  // namespace rsse

#endif  // RSSE_DPRF_GGM_DPRF_H_
