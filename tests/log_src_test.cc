#include "rsse/log_src.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "rsse/scheme.h"

namespace rsse {
namespace {

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(LogSrcTest, NoFalseNegativesExhaustive) {
  Rng rng(3);
  Dataset data = GenerateUniform(60, 64, rng);
  LogarithmicSrcScheme scheme;
  ASSERT_TRUE(scheme.Build(data).ok());
  for (uint64_t lo = 0; lo < 64; lo += 3) {
    for (uint64_t hi = lo; hi < 64; hi += 4) {
      Result<QueryResult> r = scheme.Query(Range{lo, hi});
      ASSERT_TRUE(r.ok());
      std::vector<uint64_t> truth = data.IdsInRange(Range{lo, hi});
      std::vector<uint64_t> got = Sorted(r->ids);
      for (uint64_t id : truth) {
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id))
            << "missing id " << id << " for [" << lo << "," << hi << "]";
      }
    }
  }
}

TEST(LogSrcTest, FalsePositivesConfinedToCoverNode) {
  Rng rng(3);
  Dataset data = GenerateUniform(60, 64, rng);
  LogarithmicSrcScheme scheme;
  ASSERT_TRUE(scheme.Build(data).ok());
  for (uint64_t lo = 0; lo < 64; lo += 5) {
    for (uint64_t hi = lo; hi < 64; hi += 6) {
      Range r{lo, hi};
      Result<QueryResult> q = scheme.Query(r);
      ASSERT_TRUE(q.ok());
      Range node = scheme.CoverNode(r).ToRange();
      std::vector<uint64_t> node_ids = Sorted(data.IdsInRange(node));
      for (uint64_t id : q->ids) {
        EXPECT_TRUE(std::binary_search(node_ids.begin(), node_ids.end(), id))
            << "id " << id << " outside the SRC node for [" << lo << "," << hi
            << "]";
      }
    }
  }
}

TEST(LogSrcTest, OwnerFilteringRestoresExactResult) {
  Rng rng(3);
  Dataset data = GenerateUniform(80, 128, rng);
  LogarithmicSrcScheme scheme;
  ASSERT_TRUE(scheme.Build(data).ok());
  Range r{17, 63};
  Result<QueryResult> q = scheme.Query(r);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(Sorted(FilterIdsToRange(data, q->ids, r)),
            Sorted(data.IdsInRange(r)));
}

TEST(LogSrcTest, ConstantQuerySize) {
  Rng rng(3);
  Dataset data = GenerateUniform(60, 1024, rng);
  LogarithmicSrcScheme scheme;
  ASSERT_TRUE(scheme.Build(data).ok());
  for (uint64_t size : {1u, 10u, 100u, 1000u}) {
    Result<QueryResult> q = scheme.Query(Range{0, size - 1});
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->token_count, 1u);
    EXPECT_EQ(q->token_bytes, 32u);
  }
}

TEST(LogSrcTest, PaddingHidesListShapesButKeepsAnswers) {
  Rng rng(3);
  Dataset data = GenerateUniform(50, 64, rng);
  LogarithmicSrcScheme plain(/*rng_seed=*/1, /*pad_quantum=*/0);
  LogarithmicSrcScheme padded(/*rng_seed=*/1, /*pad_quantum=*/16);
  ASSERT_TRUE(plain.Build(data).ok());
  ASSERT_TRUE(padded.Build(data).ok());
  EXPECT_GT(padded.IndexSizeBytes(), plain.IndexSizeBytes());
  for (uint64_t lo = 0; lo < 64; lo += 9) {
    Range r{lo, std::min<uint64_t>(63, lo + 12)};
    Result<QueryResult> a = plain.Query(r);
    Result<QueryResult> b = padded.Query(r);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(Sorted(FilterIdsToRange(data, a->ids, r)),
              Sorted(FilterIdsToRange(data, b->ids, r)));
  }
}

TEST(LogSrcTest, ResolveUnitMatchesGatedSearch) {
  // The shared resolver against its oracle on a Bloom-gated store: a
  // keyword token resolves to exactly the store's own gated search, in
  // order, with the same gate skips.
  Rng rng(7);
  Dataset data = GenerateUniform(200, 64, rng);
  LogarithmicSrcScheme scheme(/*rng_seed=*/3, /*pad_quantum=*/16);
  scheme.EnableBloomGate(0.01);
  ASSERT_TRUE(scheme.Build(data).ok());
  const std::vector<StoreRef> stores = scheme.stores();
  ASSERT_EQ(stores.size(), 1u);
  ASSERT_NE(stores[0].gate, nullptr);

  size_t total_skipped = 0;
  for (uint64_t lo = 0; lo < 64; lo += 5) {
    const Range r{lo, std::min<uint64_t>(63, lo + 7)};
    Result<TokenSet> tokens = scheme.Trapdoor(r);
    ASSERT_TRUE(tokens.ok());
    ASSERT_EQ(tokens->keyword.size(), 1u);
    const sse::KeywordKeys& token = tokens->keyword[0];

    sse::SearchStats expected_stats;
    const std::vector<Bytes> expected =
        stores[0].emm->Search(token, stores[0].gate, &expected_stats);
    std::vector<Bytes> sink;
    ResolveScratch scratch;
    ResolveStats stats;
    ResolveUnit(stores[0], {.keyword = &token}, scratch, sink, stats);
    EXPECT_EQ(sink, expected) << "range [" << r.lo << "," << r.hi << "]";
    EXPECT_EQ(stats.search.skipped_decrypts, expected_stats.skipped_decrypts);
    EXPECT_EQ(stats.leaves_searched, 0u);
    total_skipped += stats.search.skipped_decrypts;
  }
  EXPECT_GT(total_skipped, 0u) << "the gate must skip padding dummies";
}

TEST(LogSrcTest, SkewCausesMassiveFalsePositives) {
  // The paper's Section 6.2 worst case: one matching tuple, everything else
  // piled on a single adjacent value inside the same TDAG node.
  Rng rng(4);
  Dataset data =
      GenerateSingleValueWithOutliers(200, 8, /*hot_value=*/2, /*outliers=*/0,
                                      rng);
  // Add one tuple inside the queried range [3,5].
  data.mutable_records().push_back({999, 4});
  LogarithmicSrcScheme scheme;
  ASSERT_TRUE(scheme.Build(data).ok());
  Result<QueryResult> q = scheme.Query(Range{3, 5});
  ASSERT_TRUE(q.ok());
  // SRC covers [3,5] with N2,5, which contains value 2 => whole dataset.
  EXPECT_GT(q->ids.size(), 100u);
  EXPECT_EQ(FilterIdsToRange(data, q->ids, Range{3, 5}),
            std::vector<uint64_t>{999});
}

TEST(LogSrcTest, UniformFalsePositiveRateBounded) {
  // Lemma 1 consequence: on uniform data the returned superset is at most
  // ~4x the range mass (plus sampling noise).
  Rng rng(5);
  Dataset data = GenerateUniform(2000, 1 << 10, rng);
  LogarithmicSrcScheme scheme;
  ASSERT_TRUE(scheme.Build(data).ok());
  Rng qrng(6);
  for (int i = 0; i < 40; ++i) {
    uint64_t lo = qrng.Uniform(0, 900);
    Range r{lo, lo + 63};
    Result<QueryResult> q = scheme.Query(r);
    ASSERT_TRUE(q.ok());
    Range node = scheme.CoverNode(r).ToRange();
    EXPECT_LE(node.Size(), 4 * r.Size());
  }
}

}  // namespace
}  // namespace rsse
