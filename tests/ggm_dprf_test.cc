#include "dprf/ggm_dprf.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "crypto/prg.h"
#include "crypto/random.h"
#include "cover/urc.h"
#include "prg_backend_guard.h"

namespace rsse {
namespace {

/// Test-local oracle: one root-to-node walk per node, one GbInto per path
/// bit — the per-node derivation the batch walk must reproduce.
Label NaiveNodeSeed(const Bytes& key, int bits, const DyadicNode& node) {
  Label seed;
  std::memcpy(seed.data(), key.data(), kLabelBytes);
  for (int i = bits - node.level - 1; i >= 0; --i) {
    crypto::GgmPrg::GbInto(seed.data(),
                           static_cast<int>((node.index >> i) & 1),
                           seed.data());
  }
  return seed;
}

TEST(GgmDprfTest, EvalMatchesPaperExample) {
  // Section 2.2: the DPRF of 6 = (110)_2 is G0(G1(G1(k))).
  Bytes key = crypto::GenerateKey();
  GgmDprf dprf(key, 3);
  Bytes expected = crypto::GgmPrg::G0(crypto::GgmPrg::G1(crypto::GgmPrg::G1(key)));
  EXPECT_EQ(dprf.Eval(6), expected);
}

TEST(GgmDprfTest, NodeSeedMatchesPaperDelegation) {
  // Section 2.2: node N4,7's seed is G1(k).
  Bytes key = crypto::GenerateKey();
  GgmDprf dprf(key, 3);
  EXPECT_EQ(dprf.NodeSeed(DyadicNode{2, 1}), crypto::GgmPrg::G1(key));
  // Root seed is the key itself.
  EXPECT_EQ(dprf.NodeSeed(DyadicNode{3, 0}), key);
}

TEST(GgmDprfTest, LeafValuesAllDistinct) {
  GgmDprf dprf(crypto::GenerateKey(), 5);
  std::set<std::string> values;
  for (uint64_t v = 0; v < 32; ++v) values.insert(ToHex(dprf.Eval(v)));
  EXPECT_EQ(values.size(), 32u);
}

TEST(GgmDprfTest, ExpandReproducesLeafValuesInOrder) {
  GgmDprf dprf(crypto::GenerateKey(), 4);
  for (int level = 0; level <= 4; ++level) {
    for (uint64_t index = 0; index < (uint64_t{1} << (4 - level)); ++index) {
      DyadicNode node{level, index};
      GgmDprf::Token token{dprf.NodeSeed(node), level};
      std::vector<Bytes> leaves = GgmDprf::Expand(token);
      ASSERT_EQ(leaves.size(), node.Size());
      for (uint64_t off = 0; off < node.Size(); ++off) {
        EXPECT_EQ(leaves[off], dprf.Eval(node.Lo() + off))
            << "node level=" << level << " index=" << index << " off=" << off;
      }
    }
  }
}

TEST(GgmDprfTest, DelegationCoversRangeExactly) {
  Rng rng(7);
  GgmDprf dprf(crypto::GenerateKey(), 6);
  for (const auto technique : {CoverTechnique::kBrc, CoverTechnique::kUrc}) {
    for (uint64_t lo = 0; lo < 64; lo += 5) {
      for (uint64_t hi = lo; hi < 64; hi += 7) {
        std::vector<GgmDprf::Token> tokens =
            dprf.Delegate(Range{lo, hi}, technique, rng);
        std::set<std::string> derived;
        for (const auto& t : tokens) {
          for (const Bytes& leaf : GgmDprf::Expand(t)) {
            derived.insert(ToHex(leaf));
          }
        }
        std::set<std::string> expected;
        for (uint64_t v = lo; v <= hi; ++v) {
          expected.insert(ToHex(dprf.Eval(v)));
        }
        EXPECT_EQ(derived, expected)
            << "range [" << lo << "," << hi << "] technique "
            << (technique == CoverTechnique::kBrc ? "BRC" : "URC");
      }
    }
  }
}

TEST(GgmDprfTest, TokenCountLogarithmic) {
  Rng rng(7);
  GgmDprf dprf(crypto::GenerateKey(), 16);
  for (uint64_t size : {1u, 10u, 100u, 1000u, 10000u}) {
    std::vector<GgmDprf::Token> tokens =
        dprf.Delegate(Range{3, 3 + size - 1}, CoverTechnique::kBrc, rng);
    int log_r = 0;
    while ((uint64_t{1} << log_r) < size) ++log_r;
    EXPECT_LE(tokens.size(), static_cast<size_t>(2 * (log_r + 1)));
  }
}

TEST(GgmDprfTest, UrcTokenLevelsDependOnlyOnRangeSize) {
  // The shape an adversary sees from URC tokens must not reveal position.
  Rng rng(7);
  GgmDprf dprf(crypto::GenerateKey(), 8);
  const uint64_t size = 11;
  std::vector<int> reference;
  for (uint64_t lo = 0; lo + size <= 256; lo += 13) {
    std::vector<GgmDprf::Token> tokens =
        dprf.Delegate(Range{lo, lo + size - 1}, CoverTechnique::kUrc, rng);
    std::vector<int> levels;
    for (const auto& t : tokens) levels.push_back(t.level);
    std::sort(levels.begin(), levels.end());
    if (reference.empty()) {
      reference = levels;
    } else {
      EXPECT_EQ(levels, reference) << "at lo=" << lo;
    }
  }
  EXPECT_EQ(reference, UrcLevelProfile(size, 8));
}

TEST(GgmDprfTest, DifferentKeysProduceUnrelatedValues) {
  GgmDprf a(crypto::GenerateKey(), 4);
  GgmDprf b(crypto::GenerateKey(), 4);
  for (uint64_t v = 0; v < 16; ++v) EXPECT_NE(a.Eval(v), b.Eval(v));
}

TEST(GgmDprfTest, LargeDomainDelegationConsistent) {
  // 40-bit domain: delegation + public expansion must still reproduce the
  // owner-side evaluations exactly.
  Rng rng(3);
  GgmDprf dprf(crypto::GenerateKey(), 40);
  const uint64_t lo = (uint64_t{1} << 39) - 5;  // straddles a high subtree
  const Range r{lo, lo + 40};
  std::vector<GgmDprf::Token> tokens =
      dprf.Delegate(r, CoverTechnique::kUrc, rng);
  std::set<std::string> derived;
  for (const auto& t : tokens) {
    for (const Bytes& leaf : GgmDprf::Expand(t)) derived.insert(ToHex(leaf));
  }
  EXPECT_EQ(derived.size(), r.Size());
  for (uint64_t v = r.lo; v <= r.hi; ++v) {
    EXPECT_TRUE(derived.count(ToHex(dprf.Eval(v)))) << "missing leaf " << v;
  }
}

TEST(GgmDprfTest, ExpandIntoMatchesExpand) {
  GgmDprf dprf(crypto::GenerateKey(), 10);
  for (int level : {0, 1, 4, 8}) {
    GgmDprf::Token token{
        dprf.NodeSeed(DyadicNode{level, 1}), level};
    std::vector<Bytes> reference = GgmDprf::Expand(token);
    std::vector<Label> leaves;
    ASSERT_TRUE(GgmDprf::ExpandInto(token, leaves));
    ASSERT_EQ(leaves.size(), reference.size()) << "level " << level;
    for (size_t i = 0; i < leaves.size(); ++i) {
      EXPECT_EQ(LabelToBytes(leaves[i]), reference[i])
          << "level " << level << " leaf " << i;
    }
  }
}

TEST(GgmDprfTest, ExpandIntoRejectsMalformedTokens) {
  std::vector<Label> leaves;
  EXPECT_FALSE(GgmDprf::ExpandInto(GgmDprf::Token{Bytes(8, 0), 2}, leaves));
  EXPECT_FALSE(GgmDprf::ExpandInto(GgmDprf::Token{Bytes(16, 0), -1}, leaves));
  EXPECT_FALSE(GgmDprf::ExpandInto(GgmDprf::Token{Bytes(16, 0), 63}, leaves));
}

TEST(GgmDprfTest, ExpandIntoReusesCallerBuffer) {
  GgmDprf dprf(crypto::GenerateKey(), 6);
  std::vector<Label> leaves;
  GgmDprf::Token big{dprf.NodeSeed(DyadicNode{5, 0}), 5};
  ASSERT_TRUE(GgmDprf::ExpandInto(big, leaves));
  EXPECT_EQ(leaves.size(), 32u);
  GgmDprf::Token small{dprf.NodeSeed(DyadicNode{2, 3}), 2};
  ASSERT_TRUE(GgmDprf::ExpandInto(small, leaves));
  ASSERT_EQ(leaves.size(), 4u);
  for (uint64_t off = 0; off < 4; ++off) {
    EXPECT_EQ(LabelToBytes(leaves[off]), dprf.Eval(12 + off));
  }
}

TEST(GgmDprfTest, AesBackendDelegationConsistent) {
  // Full delegation/expansion round under the AES PRG backend: the
  // publicly expanded leaves must equal the owner-side evaluations.
  crypto::PrgBackendGuard guard(crypto::GgmPrg::Backend::kAes);
  Rng rng(11);
  GgmDprf dprf(crypto::GenerateKey(), 8);
  const Range r{37, 200};
  std::set<std::string> derived;
  for (const auto& t : dprf.Delegate(r, CoverTechnique::kBrc, rng)) {
    for (const Bytes& leaf : GgmDprf::Expand(t)) derived.insert(ToHex(leaf));
  }
  std::set<std::string> expected;
  for (uint64_t v = r.lo; v <= r.hi; ++v) {
    expected.insert(ToHex(dprf.Eval(v)));
  }
  EXPECT_EQ(derived, expected);
}

TEST(GgmDprfTest, TokensArePermuted) {
  // Delegate a wide range repeatedly; orders must differ across runs (the
  // trapdoor hides cover-node order).
  GgmDprf dprf(crypto::GenerateKey(), 10);
  Rng rng1(1);
  Rng rng2(2);
  auto t1 = dprf.Delegate(Range{1, 700}, CoverTechnique::kBrc, rng1);
  auto t2 = dprf.Delegate(Range{1, 700}, CoverTechnique::kBrc, rng2);
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_GT(t1.size(), 3u);
  bool same_order = true;
  for (size_t i = 0; i < t1.size(); ++i) {
    if (t1[i].seed != t2[i].seed) same_order = false;
  }
  EXPECT_FALSE(same_order);
}

TEST(GgmDprfTest, NodeSeedsIntoMatchesPerNodeWalks) {
  // Random node sets over every domain width 1..27, under both PRG
  // backends: leaves at both domain edges, the root, random leaves and
  // inner nodes, and repeats; walked sorted by position, shuffled, and
  // as an empty set.
  for (const auto backend :
       {crypto::GgmPrg::Backend::kHmac, crypto::GgmPrg::Backend::kAes}) {
    crypto::PrgBackendGuard guard(backend);
    Rng rng(backend == crypto::GgmPrg::Backend::kHmac ? 21 : 22);
    for (int bits = 1; bits <= 27; ++bits) {
      const Bytes key = crypto::GenerateKey();
      const GgmDprf dprf(key, bits);
      const uint64_t last = (uint64_t{1} << bits) - 1;
      std::vector<DyadicNode> nodes = {{0, 0}, {0, last}, {bits, 0}};
      for (int i = 0; i < 48; ++i) {
        const int level =
            i % 3 == 0 ? static_cast<int>(rng.Uniform(0, bits)) : 0;
        nodes.push_back(DyadicNode{level, rng.Uniform(0, last >> level)});
      }
      nodes.push_back(nodes[1]);
      nodes.push_back(nodes[7]);

      std::vector<DyadicNode> sorted = nodes;
      std::sort(sorted.begin(), sorted.end(),
                [](const DyadicNode& a, const DyadicNode& b) {
                  return std::pair(a.Lo(), -a.level) <
                         std::pair(b.Lo(), -b.level);
                });
      std::vector<DyadicNode> shuffled = nodes;
      rng.Shuffle(shuffled);
      std::vector<DyadicNode> none;
      for (const auto* order : {&sorted, &shuffled, &none}) {
        std::vector<Label> seeds(3);  // stale contents must be replaced
        dprf.NodeSeedsInto(*order, seeds);
        ASSERT_EQ(seeds.size(), order->size());
        for (size_t i = 0; i < seeds.size(); ++i) {
          const DyadicNode& n = (*order)[i];
          EXPECT_EQ(seeds[i], NaiveNodeSeed(key, bits, n))
              << "bits=" << bits << " level=" << n.level
              << " index=" << n.index << " at " << i
              << (order == &sorted ? " (sorted)" : " (shuffled)");
        }
      }
    }
  }
}

TEST(GgmDprfTest, DelegateTokensAndOrderPinned) {
  // Fixed key and Rng seed: the tokens and their shuffled order are the
  // ones the per-node derivation emitted before the batch walk existed
  // (generated by that implementation; both backends, BRC and URC).
  struct Golden {
    crypto::GgmPrg::Backend backend;
    CoverTechnique technique;
    Range range;
    std::vector<std::pair<std::string, int>> tokens;
  };
  const std::vector<Golden> goldens = {
      {crypto::GgmPrg::Backend::kHmac, CoverTechnique::kBrc, Range{37, 300},
       {{"41555cab1f38ac5c7456e18175b65428", 4},
        {"a423141ff91c63cc404ddf7639689565", 6},
        {"bf1bf82b90fe494bc503dd9be1437151", 1},
        {"ae2f9c3c2a2ade2e56bcb6d73fcb894c", 3},
        {"732a5d83d4b68ddbbc1a0fc69261c34e", 0},
        {"48078bebd5c9e8486c56d58599a60869", 2},
        {"9d27b2a7d629f7a728cb835aa7cfde78", 0},
        {"6943ef4be6729cbeb2d59aa539750bbb", 5},
        {"bf4ca9098adb4140fa58e4010ea85d94", 7},
        {"647afe91aa965910a023e806b9a04a2e", 3}}},
      {crypto::GgmPrg::Backend::kHmac, CoverTechnique::kUrc, Range{8, 39},
       {{"ceca4a6c5bae32422ede11202fea3721", 1},
        {"77cfb5dbfbeefc892fc6194c7412afd2", 0},
        {"55e5c900e82719873fdc4cf9385a7438", 0},
        {"8fd1db89afe1ee89d2d0f44312fe7a44", 3},
        {"e2be828d1829db1fe29891764f46da98", 2},
        {"0d87c686c2b28c294fbaf5114fd9466c", 4}}},
      {crypto::GgmPrg::Backend::kAes, CoverTechnique::kBrc, Range{37, 300},
       {{"f0b7d8aa5795a1008ac6c9a8d3b756ca", 4},
        {"d0c051e930ffd2b3ff81894a4c2f7648", 6},
        {"1e44b171622f5813d86a5e957b97db78", 1},
        {"3e96a3be8d4d8f1e8ae8241801b99d2d", 3},
        {"7690767a845ab523ac059931ba4b4645", 0},
        {"c09a91d06e89ed051b1b423c34d42423", 2},
        {"2e4906e2a3f55f3a3538f8303c9cd611", 0},
        {"aa062ce19d38f1e98d81b41edd6fa481", 5},
        {"debf870ac7e3b51b2ea219ef587e0c0f", 7},
        {"c9e697ac66e91260d4e510cfe6ba8e20", 3}}},
      {crypto::GgmPrg::Backend::kAes, CoverTechnique::kUrc, Range{8, 39},
       {{"8d38c9f22f02b3b5ec82cf01b1611de1", 1},
        {"a543a285d4b86c494e7e7ca910e474d5", 0},
        {"1a10a9d7191725f921948ad331620058", 0},
        {"56311a8b94ec34abb8f4cd487c0fcf93", 3},
        {"bad2f68c963139a9bf2b29bf935c66c0", 2},
        {"b05f971bc96e22fb608d0485fec82d0c", 4}}},
  };
  for (const Golden& g : goldens) {
    crypto::PrgBackendGuard guard(g.backend);
    const GgmDprf dprf(FromHex("000102030405060708090a0b0c0d0e0f"), 10);
    Rng rng(42);
    const std::vector<GgmDprf::Token> tokens =
        dprf.Delegate(g.range, g.technique, rng);
    ASSERT_EQ(tokens.size(), g.tokens.size());
    for (size_t i = 0; i < tokens.size(); ++i) {
      EXPECT_EQ(ToHex(tokens[i].seed), g.tokens[i].first) << "token " << i;
      EXPECT_EQ(tokens[i].level, g.tokens[i].second) << "token " << i;
    }
  }
}

}  // namespace
}  // namespace rsse
