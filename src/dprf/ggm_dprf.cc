#include "dprf/ggm_dprf.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cover/brc.h"
#include "cover/urc.h"
#include "crypto/prg.h"

namespace rsse {

namespace {

/// Longest path a node of a 64-bit domain can have (root to leaf).
constexpr int kMaxPathBits = 64;

/// Number of equal leading bits of two MSB-first paths of `len_a` and
/// `len_b` bits.
int CommonPrefixBits(uint64_t a, int len_a, uint64_t b, int len_b) {
  const int n = std::min(len_a, len_b);
  if (n == 0) return 0;
  const uint64_t diff = (a >> (len_a - n)) ^ (b >> (len_b - n));
  return n - static_cast<int>(std::bit_width(diff));
}

}  // namespace

GgmDprf::GgmDprf(Bytes key, int bits) : key_(std::move(key)), bits_(bits) {
  // The in-place GGM walks read/write exactly λ bytes through raw
  // pointers; a wrong-sized key would corrupt the heap, so fail fast.
  if (key_.size() != kLabelBytes) {
    std::fprintf(stderr, "rsse: GgmDprf key must be %zu bytes (got %zu)\n",
                 kLabelBytes, key_.size());
    std::abort();
  }
  if (bits_ < 0 || bits_ > kMaxPathBits) {
    std::fprintf(stderr, "rsse: GgmDprf domain bits must be in [0, %d] "
                 "(got %d)\n", kMaxPathBits, bits_);
    std::abort();
  }
}

void GgmDprf::NodeSeedsInto(std::span<const DyadicNode> nodes,
                            std::vector<Label>& out) const {
  out.resize(nodes.size());
  // A node's path is its bits_ - level index bits, MSB-first from the
  // root (the key). The stack caches the last walked path: pairs[d] holds
  // both children of that path's depth-(d-1) node, for d in [1, depth],
  // so pairs[d] stays valid for any path sharing its first d-1 bits, and
  // a node at the sibling side of a shared ancestor costs no extra PRG
  // call.
  std::array<std::array<Label, 2>, kMaxPathBits + 1> pairs{};
  Label root{};
  std::memcpy(root.data(), key_.data(), kLabelBytes);
  uint64_t cached_path = 0;
  int depth = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int len = std::clamp(bits_ - nodes[i].level, 0, bits_);
    const uint64_t path =
        len == 0 ? 0 : nodes[i].index & (~uint64_t{0} >> (kMaxPathBits - len));
    const int shared = CommonPrefixBits(path, len, cached_path, depth);
    for (int d = std::min(depth, shared + 1) + 1; d <= len; ++d) {
      const uint8_t* parent =
          d == 1 ? root.data()
                 : pairs[d - 1][(path >> (len - d + 1)) & 1].data();
      crypto::GgmPrg::ExpandInto(parent, pairs[d][0].data(),
                                 pairs[d][1].data());
    }
    out[i] = len == 0 ? root : pairs[len][path & 1];
    cached_path = path;
    depth = len;
  }
}

Bytes GgmDprf::NodeSeed(const DyadicNode& node) const {
  std::vector<Label> seed;
  NodeSeedsInto({&node, 1}, seed);
  return LabelToBytes(seed[0]);
}

Bytes GgmDprf::Eval(uint64_t value) const {
  return NodeSeed(DyadicNode{0, value});
}

std::vector<GgmDprf::Token> GgmDprf::Delegate(const Range& r,
                                              CoverTechnique technique,
                                              Rng& rng) const {
  std::vector<DyadicNode> cover = technique == CoverTechnique::kBrc
                                      ? BestRangeCover(r, bits_)
                                      : UniformRangeCover(r, bits_);
  // Covers come out left to right, so one walk shares every prefix.
  std::vector<Label> seeds;
  NodeSeedsInto(cover, seeds);
  std::vector<Token> tokens;
  tokens.reserve(cover.size());
  for (size_t i = 0; i < cover.size(); ++i) {
    tokens.push_back(Token{LabelToBytes(seeds[i]), cover[i].level});
  }
  rng.Shuffle(tokens);
  return tokens;
}

bool GgmDprf::ExpandInto(const Token& token, std::vector<Label>& out) {
  if (token.seed.size() != kLabelBytes || token.level < 0 ||
      token.level > 62) {
    return false;
  }
  out.resize(size_t{1} << token.level);
  std::memcpy(out[0].data(), token.seed.data(), kLabelBytes);
  // In-place breadth-first doubling: at step k the frontier of 2^k seeds
  // occupies slots [0, 2^k) and doubles into [0, 2^(k+1)). The whole level
  // is handed to the PRG in one call, so the AES backend pipelines it
  // through multi-block EVP_EncryptUpdate batches instead of dispatching
  // two blocks per node.
  uint8_t* buf = reinterpret_cast<uint8_t*>(out.data());
  for (int k = 0; k < token.level; ++k) {
    crypto::GgmPrg::ExpandFrontierInPlace(buf, size_t{1} << k);
  }
  return true;
}

std::vector<Bytes> GgmDprf::Expand(const Token& token) {
  std::vector<Label> leaves;
  if (!ExpandInto(token, leaves)) return {};
  std::vector<Bytes> out;
  out.reserve(leaves.size());
  for (const Label& leaf : leaves) out.push_back(LabelToBytes(leaf));
  return out;
}

}  // namespace rsse
