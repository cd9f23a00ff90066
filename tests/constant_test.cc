#include "rsse/constant.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "cover/urc.h"
#include "crypto/prg.h"
#include "crypto/random.h"
#include "prg_backend_guard.h"
#include "rsse/leakage.h"
#include "sse/keyword_keys.h"

namespace rsse {
namespace {

Dataset SkewedDataset() {
  std::vector<Record> records;
  for (uint64_t i = 0; i < 20; ++i) records.push_back({i, 5});
  records.push_back({20, 0});
  records.push_back({21, 30});
  records.push_back({22, 31});
  return Dataset(Domain{32}, std::move(records));
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class ConstantSchemeTest : public ::testing::TestWithParam<CoverTechnique> {};

TEST_P(ConstantSchemeTest, ExhaustiveCorrectnessNoFalsePositives) {
  ConstantScheme scheme(GetParam());
  Dataset data = SkewedDataset();
  ASSERT_TRUE(scheme.Build(data).ok());
  for (uint64_t lo = 0; lo < 32; lo += 3) {
    for (uint64_t hi = lo; hi < 32; hi += 2) {
      Result<QueryResult> r = scheme.Query(Range{lo, hi});
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(Sorted(r->ids), Sorted(data.IdsInRange(Range{lo, hi})))
          << "range [" << lo << "," << hi << "]";
    }
  }
}

TEST_P(ConstantSchemeTest, TokenCountLogarithmicInRangeSize) {
  ConstantScheme scheme(GetParam());
  ASSERT_TRUE(scheme.Build(SkewedDataset()).ok());
  Result<QueryResult> small = scheme.Query(Range{4, 5});
  Result<QueryResult> large = scheme.Query(Range{1, 30});
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LE(small->token_count, 2u);
  EXPECT_LE(large->token_count, 12u);  // O(log R), not O(R)=30
}

TEST_P(ConstantSchemeTest, IntersectionGuardBlocksOverlaps) {
  ConstantScheme scheme(GetParam());
  ASSERT_TRUE(scheme.Build(SkewedDataset()).ok());
  scheme.EnableIntersectionGuard();
  ASSERT_TRUE(scheme.Query(Range{0, 7}).ok());
  // Overlapping query must be refused.
  EXPECT_EQ(scheme.Query(Range{5, 10}).status().code(),
            StatusCode::kFailedPrecondition);
  // Disjoint query is fine.
  EXPECT_TRUE(scheme.Query(Range{8, 15}).ok());
}

TEST_P(ConstantSchemeTest, QueryBeforeBuildFails) {
  ConstantScheme scheme(GetParam());
  EXPECT_FALSE(scheme.Query(Range{0, 1}).ok());
}

INSTANTIATE_TEST_SUITE_P(BothTechniques, ConstantSchemeTest,
                         ::testing::Values(CoverTechnique::kBrc,
                                           CoverTechnique::kUrc));

TEST_P(ConstantSchemeTest, AesPrgBackendEndToEnd) {
  // Build + query under the AES-NI GGM backend: exact results, no false
  // positives — the backend only changes the PRG, not the protocol.
  crypto::PrgBackendGuard guard(crypto::GgmPrg::Backend::kAes);
  ConstantScheme scheme(GetParam());
  Dataset data = SkewedDataset();
  ASSERT_TRUE(scheme.Build(data).ok());
  for (uint64_t lo = 0; lo < 32; lo += 4) {
    for (uint64_t hi = lo; hi < 32; hi += 3) {
      Result<QueryResult> r = scheme.Query(Range{lo, hi});
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(Sorted(r->ids), Sorted(data.IdsInRange(Range{lo, hi})))
          << "range [" << lo << "," << hi << "]";
    }
  }
}

TEST(ConstantSchemeTest, ResolveUnitMatchesPerLeafSearch) {
  // The shared resolver against a per-leaf oracle: a GGM token resolves to
  // exactly the concatenation, in leaf order, of one dictionary search per
  // expanded leaf under that leaf's derived keys, over a 4-shard store and
  // under both PRG backends.
  for (crypto::GgmPrg::Backend backend :
       {crypto::GgmPrg::Backend::kHmac, crypto::GgmPrg::Backend::kAes}) {
    crypto::PrgBackendGuard guard(backend);
    // Values 0..511 hold records; 768..1023 hold none.
    Rng rng(9);
    std::vector<Record> records;
    for (uint64_t id = 0; id < 2000; ++id) {
      records.push_back({id, rng.Uniform(0, 511)});
    }
    ConstantScheme scheme(CoverTechnique::kBrc, /*rng_seed=*/5);
    scheme.SetShards(4);
    ASSERT_TRUE(scheme.Build(Dataset(Domain{1024}, std::move(records))).ok());
    ASSERT_EQ(scheme.index().shard_count(), 4);
    const std::vector<StoreRef> stores = scheme.stores();
    ASSERT_EQ(stores.size(), 1u);

    const struct {
      Range range;
      int level;
    } cases[] = {{{37, 37}, 0}, {{100, 101}, 1}, {{256, 511}, 8},
                 {{768, 1023}, 8}};
    for (const auto& c : cases) {
      const std::vector<GgmDprf::Token> tokens = scheme.Delegate(c.range);
      ASSERT_EQ(tokens.size(), 1u);
      ASSERT_EQ(tokens[0].level, c.level);

      std::vector<Bytes> expected;
      sse::SearchStats expected_stats;
      std::vector<Label> leaves;
      ASSERT_TRUE(GgmDprf::ExpandInto(tokens[0], leaves));
      for (const Label& leaf : leaves) {
        for (Bytes& hit : scheme.index().Search(
                 sse::KeysFromSharedSecret(Bytes(leaf.begin(), leaf.end())),
                 nullptr, &expected_stats)) {
          expected.push_back(std::move(hit));
        }
      }

      std::vector<Bytes> sink;
      ResolveScratch scratch;
      ResolveStats stats;
      ResolveUnit(stores[0], {.ggm = &tokens[0]}, scratch, sink, stats);
      EXPECT_EQ(sink, expected) << "range [" << c.range.lo << ","
                                << c.range.hi << "]";
      EXPECT_EQ(stats.search.skipped_decrypts,
                expected_stats.skipped_decrypts);
      EXPECT_EQ(stats.leaves_searched, uint64_t{1} << c.level);
      if (c.range.lo >= 768) {
        EXPECT_TRUE(sink.empty());
      } else {
        EXPECT_FALSE(sink.empty());
      }
    }
  }
}

TEST(ConstantSchemeTest, UrcDelegationLevelsPositionIndependent) {
  ConstantScheme scheme(CoverTechnique::kUrc);
  ASSERT_TRUE(scheme.Build(SkewedDataset()).ok());
  const uint64_t size = 6;
  std::vector<int> reference;
  for (uint64_t lo = 0; lo + size <= 32; lo += 2) {
    std::vector<int> levels;
    for (const auto& t : scheme.Delegate(Range{lo, lo + size - 1})) {
      levels.push_back(t.level);
    }
    std::sort(levels.begin(), levels.end());
    if (reference.empty()) {
      reference = levels;
    } else {
      EXPECT_EQ(levels, reference) << "at lo=" << lo;
    }
  }
  EXPECT_EQ(reference, UrcLevelProfile(size, 5));
}

TEST(ConstantSchemeTest, BrcDelegationLevelsLeakPosition) {
  // The counterpart: BRC covers of equal-size ranges can differ in shape —
  // exactly the leakage URC removes.
  ConstantScheme scheme(CoverTechnique::kBrc);
  ASSERT_TRUE(scheme.Build(SkewedDataset()).ok());
  auto profile = [&](uint64_t lo, uint64_t hi) {
    std::vector<int> levels;
    for (const auto& t : scheme.Delegate(Range{lo, hi})) {
      levels.push_back(t.level);
    }
    std::sort(levels.begin(), levels.end());
    return levels;
  };
  // [2,7] -> {1,2}; [1,6] -> {0,0,1,1} (paper's Figure 1 discussion).
  EXPECT_NE(profile(2, 7), profile(1, 6));
}

TEST(ConstantSchemeTest, RepeatedQueriesExposeSearchPattern) {
  // σ(W): re-asking the same range re-delegates the same GGM seeds (the
  // trapdoor permutation hides order, not identity) — the paper's search
  // pattern leakage, observable by the tracker.
  ConstantScheme scheme(CoverTechnique::kBrc);
  ASSERT_TRUE(scheme.Build(SkewedDataset()).ok());
  leakage::SearchPatternTracker tracker;
  auto observe = [&](size_t query_index, const Range& r) {
    std::vector<Bytes> material;
    for (const auto& t : scheme.Delegate(r)) material.push_back(t.seed);
    tracker.Observe(query_index, material);
  };
  observe(0, Range{4, 11});
  observe(1, Range{20, 27});  // disjoint, different subtrees
  observe(2, Range{4, 11});   // repeat of query 0
  std::vector<std::pair<size_t, size_t>> pairs = tracker.MatchingPairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], std::make_pair(size_t{0}, size_t{2}));
}

TEST(ConstantSchemeTest, IndexSizeLinearInN) {
  // O(n) storage: doubling n roughly doubles the index size.
  ConstantScheme small_scheme(CoverTechnique::kBrc);
  ConstantScheme big_scheme(CoverTechnique::kBrc);
  std::vector<Record> small_records;
  std::vector<Record> big_records;
  for (uint64_t i = 0; i < 100; ++i) small_records.push_back({i, i % 64});
  for (uint64_t i = 0; i < 200; ++i) big_records.push_back({i, i % 64});
  ASSERT_TRUE(small_scheme.Build(Dataset(Domain{64}, small_records)).ok());
  ASSERT_TRUE(big_scheme.Build(Dataset(Domain{64}, big_records)).ok());
  double ratio = static_cast<double>(big_scheme.IndexSizeBytes()) /
                 static_cast<double>(small_scheme.IndexSizeBytes());
  EXPECT_NEAR(ratio, 2.0, 0.3);
}

TEST(ConstantSchemeTest, DprfKeyDeriverMatchesPerValueEval) {
  // The table built by one shared-prefix walk must give every value the
  // keys of its own root-to-leaf Eval; values outside the table (the
  // domain values no record holds) take the Eval fallback.
  for (const auto backend :
       {crypto::GgmPrg::Backend::kHmac, crypto::GgmPrg::Backend::kAes}) {
    crypto::PrgBackendGuard guard(backend);
    const int bits = 11;
    const GgmDprf dprf(crypto::GenerateKey(), bits);
    Rng rng(5);
    std::vector<uint64_t> values = {0, (uint64_t{1} << bits) - 1};
    for (int i = 0; i < 700; ++i) {
      values.push_back(rng.Uniform(0, (uint64_t{1} << bits) - 1));
    }
    const DprfKeyDeriver deriver(dprf, values);  // unsorted, repeats
    for (uint64_t v = 0; v < (uint64_t{1} << bits); ++v) {
      Bytes keyword;
      AppendUint64(keyword, v);
      EXPECT_EQ(deriver.Derive(keyword),
                sse::KeysFromSharedSecret(dprf.Eval(v)))
          << "value " << v;
    }
  }
}

}  // namespace
}  // namespace rsse
