// Robustness and concurrency: malformed inputs must fail cleanly (no
// crashes), and the read-only server paths must be safely shareable across
// threads.

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/random.h"
#include "data/generators.h"
#include "rsse/factory.h"
#include "shard/sharded_emm.h"
#include "sse/encrypted_multimap.h"

namespace rsse {
namespace {

/// The paper's flat dictionary: a 1-shard store.
shard::ShardedEmm BuildFlat(const sse::PlainMultimap& postings,
                            const sse::KeywordKeyDeriver& deriver) {
  shard::ShardOptions options;
  options.shards = 1;
  Result<shard::ShardedEmm> built =
      shard::ShardedEmm::Build(postings, deriver, options);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

TEST(RobustnessTest, DeserializeSurvivesRandomMutations) {
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  sse::PlainMultimap postings;
  postings[ToBytes("w")] = {sse::EncodeIdPayload(1), sse::EncodeIdPayload(2)};
  Bytes blob = BuildFlat(postings, deriver).Serialize();

  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = blob;
    int mutations = static_cast<int>(rng.Uniform(1, 8));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.Uniform(0, mutated.size() - 1);
      mutated[pos] = static_cast<uint8_t>(rng.Uniform(0, 255));
    }
    if (rng.Flip(0.3) && mutated.size() > 4) {
      mutated.resize(rng.Uniform(0, mutated.size() - 1));
    }
    // Must either parse (mutation hit ciphertext bytes only) or fail with a
    // clean status — never crash.
    Result<shard::ShardedEmm> r = shard::ShardedEmm::Deserialize(mutated);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(RobustnessTest, SearchWithCorruptedTokenReturnsNothingOrGarbage) {
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  sse::PlainMultimap postings;
  for (uint64_t i = 0; i < 50; ++i) {
    postings[ToBytes("w")].push_back(sse::EncodeIdPayload(i));
  }
  const shard::ShardedEmm store = BuildFlat(postings, deriver);
  sse::KeywordKeys token = deriver.Derive(ToBytes("w"));
  // Valid label key but corrupted value key: decryptions fail cleanly and
  // the search terminates.
  sse::KeywordKeys bad = token;
  bad.value_key[0] ^= 0xff;
  std::vector<Bytes> res = store.Search(bad);
  EXPECT_LE(res.size(), 50u);
}

TEST(RobustnessTest, ConcurrentSearchesAreSafe) {
  // The server-side store is shared read-only by every search worker:
  // concurrent Search calls on one index must all see every posting.
  sse::PrfKeyDeriver deriver(crypto::GenerateKey());
  sse::PlainMultimap postings;
  for (uint64_t w = 0; w < 16; ++w) {
    Bytes keyword;
    AppendUint64(keyword, w);
    for (uint64_t i = 0; i < 100; ++i) {
      postings[keyword].push_back(sse::EncodeIdPayload(w * 1000 + i));
    }
  }
  shard::ShardOptions options;
  options.shards = 4;
  Result<shard::ShardedEmm> emm =
      shard::ShardedEmm::Build(postings, deriver, options);
  ASSERT_TRUE(emm.ok());

  std::atomic<int> failures{0};
  auto worker = [&](uint64_t w) {
    Bytes keyword;
    AppendUint64(keyword, w);
    sse::KeywordKeys token = deriver.Derive(keyword);
    for (int i = 0; i < 20; ++i) {
      if (emm->Search(token).size() != 100) failures.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t w = 0; w < 16; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(RobustnessTest, SchemesHandleEmptyDatasetGracefully) {
  Dataset empty(Domain{64}, {});
  for (SchemeId id : AllSchemeIds()) {
    auto scheme = MakeScheme(id, 1);
    Status built = scheme->Build(empty);
    if (!built.ok()) continue;  // SRC-i legitimately rejects empty input
    Result<QueryResult> q = scheme->Query(Range{0, 63});
    ASSERT_TRUE(q.ok()) << SchemeName(id);
    EXPECT_TRUE(q->ids.empty()) << SchemeName(id);
  }
}

TEST(RobustnessTest, ZeroSizedDomainRejected) {
  Dataset bad(Domain{0}, {});
  for (SchemeId id : AllSchemeIds()) {
    auto scheme = MakeScheme(id, 1);
    EXPECT_FALSE(scheme->Build(bad).ok()) << SchemeName(id);
  }
}

TEST(RobustnessTest, QueryResultsAreStableAcrossRepeats) {
  // Queries are deterministic given the built index (modulo the random
  // token permutation): repeated queries must return the same id multiset.
  Rng rng(5);
  Dataset data = GenerateUniform(200, 1 << 8, rng);
  for (SchemeId id : AllSchemeIds()) {
    if (id == SchemeId::kQuadratic) continue;
    auto scheme = MakeScheme(id, 1);
    ASSERT_TRUE(scheme->Build(data).ok());
    Range r{40, 180};
    std::vector<uint64_t> first = scheme->Query(r)->ids;
    std::sort(first.begin(), first.end());
    for (int i = 0; i < 3; ++i) {
      std::vector<uint64_t> again = scheme->Query(r)->ids;
      std::sort(again.begin(), again.end());
      EXPECT_EQ(again, first) << SchemeName(id);
    }
  }
}

TEST(RobustnessTest, ValuesAtDomainEdges) {
  // First and last domain values, power-of-two and non-power domains.
  for (uint64_t domain_size : {uint64_t{2}, uint64_t{100}, uint64_t{1} << 16}) {
    Dataset data(Domain{domain_size},
                 {{1, 0}, {2, domain_size - 1}, {3, domain_size / 2}});
    for (SchemeId id : AllSchemeIds()) {
      if (id == SchemeId::kQuadratic && domain_size > 4096) continue;
      auto scheme = MakeScheme(id, 1);
      ASSERT_TRUE(scheme->Build(data).ok())
          << SchemeName(id) << " domain " << domain_size;
      Result<QueryResult> all = scheme->Query(Range{0, domain_size - 1});
      ASSERT_TRUE(all.ok());
      EXPECT_EQ(FilterIdsToRange(data, all->ids, Range{0, domain_size - 1}).size(),
                3u)
          << SchemeName(id) << " domain " << domain_size;
      Range last_value{domain_size - 1, domain_size - 1};
      Result<QueryResult> last = scheme->Query(last_value);
      ASSERT_TRUE(last.ok());
      std::vector<uint64_t> got =
          FilterIdsToRange(data, last->ids, last_value);
      std::vector<uint64_t> truth = data.IdsInRange(last_value);
      std::sort(got.begin(), got.end());
      std::sort(truth.begin(), truth.end());
      EXPECT_EQ(got, truth) << SchemeName(id) << " domain " << domain_size;
    }
  }
}

}  // namespace
}  // namespace rsse
