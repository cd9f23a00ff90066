// Remote conformance harness: every scheme of the family — including the
// PB baseline and the Naive-PerValue ablation — answers range queries
// through a RemoteBackend against a real loopback rsse_serverd with id
// sets identical to its in-process LocalBackend, and both refuse a
// mis-addressed token set with the same message. This is the acceptance
// contract of the split-party API: ExportServerSetup ships the server
// half (index blobs, Bloom gates, PB filter tree) over SetupStore frames,
// and QueryVia runs the identical protocol — rounds, token counts,
// SRC-i's dependent second round, server-side gate skips — over the wire.

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "pb/pb_scheme.h"
#include "rsse/factory.h"
#include "rsse/local_backend.h"
#include "rsse/log_src.h"
#include "rsse/log_src_i.h"
#include "rsse/scheme.h"
#include "server/client.h"
#include "server/remote_backend.h"
#include "server/server.h"
#include "sse/emm_codec.h"
#include "sse/keyword_keys.h"

namespace rsse {
namespace {

class LoopbackServer {
 public:
  explicit LoopbackServer(server::ServerOptions options = {})
      : server_(options) {
    Status s = server_.Listen();
    EXPECT_TRUE(s.ok()) << s.ToString();
    thread_ = std::thread([this] {
      Status serve = server_.Serve();
      EXPECT_TRUE(serve.ok()) << serve.ToString();
    });
  }

  ~LoopbackServer() {
    server_.Shutdown();
    thread_.join();
  }

  uint16_t port() const { return server_.port(); }

 private:
  server::EmmServer server_;
  std::thread thread_;
};

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::unique_ptr<RangeScheme> Make(SchemeId id) {
  if (id == SchemeId::kPb) return pb::MakePbScheme(/*rng_seed=*/11);
  return MakeScheme(id, /*rng_seed=*/11);
}

std::vector<SchemeId> AllServableSchemeIds() {
  std::vector<SchemeId> ids = AllSchemeIds();
  ids.push_back(SchemeId::kPb);
  ids.push_back(SchemeId::kNaivePerValue);
  return ids;
}

std::string SchemeIdName(const ::testing::TestParamInfo<SchemeId>& info) {
  std::string name = SchemeName(info.param);
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class RemoteConformanceTest : public ::testing::TestWithParam<SchemeId> {};

TEST_P(RemoteConformanceTest, RemoteIdsMatchLocalForAllRanges) {
  Rng rng(17);
  Dataset data = GenerateUspsLike(/*n=*/60, /*domain_size=*/32, rng);
  std::unique_ptr<RangeScheme> scheme = Make(GetParam());
  ASSERT_NE(scheme, nullptr);
  ASSERT_TRUE(scheme->Build(data).ok());

  Result<ServerSetup> setup = scheme->ExportServerSetup();
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();

  LoopbackServer loopback;
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
  Status installed = server::InstallServerSetup(client, *setup);
  ASSERT_TRUE(installed.ok()) << installed.ToString();
  server::RemoteBackend remote(client);

  for (uint64_t lo = 0; lo < 32; lo += 3) {
    for (uint64_t hi = lo; hi < 32; hi += 4) {
      const Range r{lo, hi};
      Result<QueryResult> local = scheme->Query(r);
      ASSERT_TRUE(local.ok()) << local.status().ToString();
      Result<QueryResult> wire = scheme->QueryVia(remote, r);
      ASSERT_TRUE(wire.ok()) << wire.status().ToString();
      EXPECT_EQ(Sorted(wire->ids), Sorted(local->ids))
          << SchemeName(GetParam()) << " range [" << lo << "," << hi << "]";
      EXPECT_EQ(wire->token_count, local->token_count);
      EXPECT_EQ(wire->rounds, local->rounds);
    }
  }
}

TEST_P(RemoteConformanceTest, RemoteRefinedResultsExact) {
  // End-to-end exactness through the wire: after owner-side refinement the
  // remote protocol answers every range exactly, also on a skew-free
  // dataset with a bigger domain (multi-node covers, deeper GGM trees).
  Rng rng(23);
  Dataset data = GenerateUniform(/*n=*/80, /*domain_size=*/64, rng);
  std::unique_ptr<RangeScheme> scheme = Make(GetParam());
  ASSERT_TRUE(scheme->Build(data).ok());
  Result<ServerSetup> setup = scheme->ExportServerSetup();
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();

  LoopbackServer loopback;
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
  ASSERT_TRUE(server::InstallServerSetup(client, *setup).ok());
  server::RemoteBackend remote(client);

  for (uint64_t lo = 0; lo < 64; lo += 7) {
    for (uint64_t hi = lo; hi < 64; hi += 9) {
      const Range r{lo, hi};
      Result<QueryResult> wire = scheme->QueryVia(remote, r);
      ASSERT_TRUE(wire.ok()) << wire.status().ToString();
      EXPECT_EQ(Sorted(FilterIdsToRange(data, wire->ids, r)),
                Sorted(data.IdsInRange(r)))
          << SchemeName(GetParam()) << " range [" << lo << "," << hi << "]";
    }
  }
}

TEST_P(RemoteConformanceTest, EmptyDatasetServesRemotely) {
  Dataset data(Domain{16}, {});
  std::unique_ptr<RangeScheme> scheme = Make(GetParam());
  ASSERT_TRUE(scheme->Build(data).ok());
  Result<ServerSetup> setup = scheme->ExportServerSetup();
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();

  LoopbackServer loopback;
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
  ASSERT_TRUE(server::InstallServerSetup(client, *setup).ok());
  server::RemoteBackend remote(client);

  Result<QueryResult> wire = scheme->QueryVia(remote, Range{0, 15});
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_TRUE(FilterIdsToRange(data, wire->ids, Range{0, 15}).empty());
}

INSTANTIATE_TEST_SUITE_P(EveryScheme, RemoteConformanceTest,
                         ::testing::ValuesIn(AllServableSchemeIds()),
                         SchemeIdName);

TEST(RemoteSrcITest, SecondRoundRunsOverTheWire) {
  // A skewed dataset and a fat range force SRC-i's interactive
  // refinement: round 2 must hit the secondary store (I2) remotely.
  Rng rng(29);
  Dataset data = GenerateUspsLike(/*n=*/100, /*domain_size=*/64, rng);
  LogarithmicSrcIScheme scheme(/*rng_seed=*/5);
  ASSERT_TRUE(scheme.Build(data).ok());
  Result<ServerSetup> setup = scheme.ExportServerSetup();
  ASSERT_TRUE(setup.ok());
  ASSERT_EQ(setup->stores.size(), 2u) << "SRC-i ships I1 and I2";

  LoopbackServer loopback;
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
  ASSERT_TRUE(server::InstallServerSetup(client, *setup).ok());
  server::RemoteBackend remote(client);

  const Range r{4, 59};
  Result<QueryResult> wire = scheme.QueryVia(remote, r);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->rounds, 2);
  EXPECT_EQ(wire->token_count, 2u);
  EXPECT_EQ(Sorted(FilterIdsToRange(data, wire->ids, r)),
            Sorted(data.IdsInRange(r)));
}

TEST(RemoteGateTest, BloomGateShipsWithSetupAndSkipsServerSide) {
  // Padded SRC with a Bloom gate: the gate blob rides the SetupStore
  // frame, and the remote server reports dummy decryptions skipped —
  // with results identical to the ungated local protocol.
  Rng rng(31);
  Dataset data = GenerateUspsLike(/*n=*/120, /*domain_size=*/32, rng);
  LogarithmicSrcScheme scheme(/*rng_seed=*/7, /*pad_quantum=*/16);
  scheme.EnableBloomGate(0.01);
  ASSERT_TRUE(scheme.Build(data).ok());
  Result<ServerSetup> setup = scheme.ExportServerSetup();
  ASSERT_TRUE(setup.ok());
  ASSERT_FALSE(setup->stores[0].gate_blob.empty());

  LoopbackServer loopback;
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
  ASSERT_TRUE(server::InstallServerSetup(client, *setup).ok());
  server::RemoteBackend remote(client);

  size_t total_skipped = 0;
  for (uint64_t lo = 0; lo < 32; lo += 5) {
    const Range r{lo, std::min<uint64_t>(lo + 6, 31)};
    Result<QueryResult> local = scheme.Query(r);
    ASSERT_TRUE(local.ok());
    Result<QueryResult> wire = scheme.QueryVia(remote, r);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(Sorted(wire->ids), Sorted(local->ids));
    EXPECT_EQ(wire->skipped_decrypts, local->skipped_decrypts);
    total_skipped += wire->skipped_decrypts;
  }
  EXPECT_GT(total_skipped, 0u) << "padding dummies must be gated remotely";
}

TEST(RemoteGateTest, SrcITwoGatesShipAndSkip) {
  Rng rng(37);
  Dataset data = GenerateUspsLike(/*n=*/120, /*domain_size=*/32, rng);
  LogarithmicSrcIScheme scheme(/*rng_seed=*/7, /*pad_quantum=*/16);
  scheme.EnableBloomGate(0.01);
  ASSERT_TRUE(scheme.Build(data).ok());
  Result<ServerSetup> setup = scheme.ExportServerSetup();
  ASSERT_TRUE(setup.ok());
  ASSERT_EQ(setup->stores.size(), 2u);
  EXPECT_FALSE(setup->stores[0].gate_blob.empty());
  EXPECT_FALSE(setup->stores[1].gate_blob.empty());

  LoopbackServer loopback;
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
  ASSERT_TRUE(server::InstallServerSetup(client, *setup).ok());
  server::RemoteBackend remote(client);

  size_t total_skipped = 0;
  for (uint64_t lo = 0; lo < 32; lo += 6) {
    const Range r{lo, std::min<uint64_t>(lo + 9, 31)};
    Result<QueryResult> local = scheme.Query(r);
    ASSERT_TRUE(local.ok());
    Result<QueryResult> wire = scheme.QueryVia(remote, r);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    EXPECT_EQ(Sorted(wire->ids), Sorted(local->ids));
    total_skipped += wire->skipped_decrypts;
  }
  EXPECT_GT(total_skipped, 0u);
}

TEST(RemoteGateTest, UpdateDropsStaleGateSoNewEntriesStayVisible) {
  // A shipped gate knows only the setup-time labels; after an Update the
  // server must not let it skip-decrypt (drop) the new entries. The
  // server drops the gate on Update, so a keyword search for freshly
  // inserted entries returns them all.
  Rng rng(43);
  Dataset data = GenerateUspsLike(/*n=*/80, /*domain_size=*/32, rng);
  LogarithmicSrcScheme scheme(/*rng_seed=*/7, /*pad_quantum=*/8);
  scheme.EnableBloomGate(0.01);
  ASSERT_TRUE(scheme.Build(data).ok());
  Result<ServerSetup> setup = scheme.ExportServerSetup();
  ASSERT_TRUE(setup.ok());
  ASSERT_FALSE(setup->stores[0].gate_blob.empty());

  LoopbackServer loopback;
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
  ASSERT_TRUE(server::InstallServerSetup(client, *setup).ok());

  // Owner-side: encrypt one fresh keyword's postings under an unrelated
  // key and ship the raw codec entries through Update.
  sse::PrfKeyDeriver deriver(Bytes(kLabelBytes, 0x66));
  std::vector<std::pair<Label, Bytes>> entries;
  sse::EmmBuildScratch scratch;
  std::vector<Bytes> payloads = {sse::EncodeIdPayload(901),
                                 sse::EncodeIdPayload(902)};
  ASSERT_TRUE(sse::EncryptKeywordEntries(
                  ToBytes("fresh"), payloads, deriver, /*pad_quantum=*/0,
                  scratch,
                  [&entries](const Label& label, size_t len) {
                    entries.emplace_back(label, Bytes(len));
                    return ByteSpan(entries.back().second.data(), len);
                  })
                  .ok());
  ASSERT_TRUE(client.Update(entries).ok());

  // The updated keyword resolves remotely despite the (now dropped)
  // gate never having seen its labels.
  server::SearchKeywordRequest req;
  req.store_id = kPrimaryStore;
  server::SearchKeywordRequest::Query query;
  query.query_id = 1;
  const sse::KeywordKeys token = deriver.Derive(ToBytes("fresh"));
  server::WireKeywordToken wt;
  wt.kind = 0;
  wt.a = token.label_key;
  wt.b = token.value_key;
  query.tokens.push_back(wt);
  req.queries.push_back(query);
  auto outcome = client.SearchKeyword(req);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->payloads[1].size(), 2u);
}

TEST(RemoteMisaddressTest, LocalAndRemoteRefuseAlike) {
  // A token set sent where no store serves it fails in process and over
  // the wire with the same refusal: the remote message is the local one
  // behind the client's "server error: " prefix.
  Rng rng(47);
  Dataset data = GenerateUniform(/*n=*/40, /*domain_size=*/32, rng);
  std::unique_ptr<RangeScheme> pb = Make(SchemeId::kPb);
  std::unique_ptr<RangeScheme> srci = Make(SchemeId::kLogarithmicSrcI);
  ASSERT_TRUE(pb->Build(data).ok());
  ASSERT_TRUE(srci->Build(data).ok());

  TokenSet keyword;
  keyword.keyword.push_back(
      sse::KeysFromSharedSecret(Bytes(kLabelBytes, 0x21)));
  TokenSet trapdoors;
  trapdoors.opaque.push_back(Bytes(kLabelBytes, 0x42));
  TokenSet ggm_at_i2;
  ggm_at_i2.store = kSecondaryStore;
  ggm_at_i2.ggm.push_back(GgmDprf::Token{Bytes(kLabelBytes, 0x17), 2});
  TokenSet unhosted = keyword;
  unhosted.store = 7;

  const struct {
    const char* what;
    RangeScheme* scheme;
    const TokenSet& tokens;
  } cases[] = {
      {"keyword tokens at PB's filter-tree slot", pb.get(), keyword},
      {"PB trapdoors at an encrypted-dictionary slot", srci.get(),
       trapdoors},
      {"GGM tokens at SRC-i's slot 1", srci.get(), ggm_at_i2},
      {"a token at a slot nothing hosts", srci.get(), unhosted},
  };
  for (const auto& c : cases) {
    LocalBackend local(c.scheme->stores());
    Result<ResolvedIds> in_process = local.Resolve(c.tokens);
    if (in_process.ok()) {
      ADD_FAILURE() << c.what << " resolved in process";
      continue;
    }

    Result<ServerSetup> setup = c.scheme->ExportServerSetup();
    ASSERT_TRUE(setup.ok());
    LoopbackServer loopback;
    server::EmmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
    ASSERT_TRUE(server::InstallServerSetup(client, *setup).ok());
    server::RemoteBackend remote(client);
    Result<ResolvedIds> served = remote.Resolve(c.tokens);
    if (served.ok()) {
      ADD_FAILURE() << c.what << " resolved over the wire";
      continue;
    }
    EXPECT_TRUE(
        served.status().message().ends_with(in_process.status().message()))
        << c.what << ": local '" << in_process.status().message()
        << "', remote '" << served.status().message() << "'";
  }
}

TEST(RemoteChunkingTest, TinyResultFramesReassembleExactly) {
  // A one-id-per-frame server must stream many chunks; the client
  // reassembles them into exactly the unchunked result.
  Rng rng(41);
  Dataset data = GenerateUniform(/*n=*/300, /*domain_size=*/64, rng);
  std::unique_ptr<RangeScheme> scheme = Make(SchemeId::kLogarithmicBrc);
  ASSERT_TRUE(scheme->Build(data).ok());
  Result<ServerSetup> setup = scheme->ExportServerSetup();
  ASSERT_TRUE(setup.ok());

  server::ServerOptions options;
  options.max_ids_per_result_frame = 1;
  options.max_payloads_per_result_frame = 1;
  LoopbackServer loopback(options);
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
  ASSERT_TRUE(server::InstallServerSetup(client, *setup).ok());
  server::RemoteBackend remote(client);

  const Range r{0, 63};
  Result<QueryResult> local = scheme->Query(r);
  ASSERT_TRUE(local.ok());
  ASSERT_GT(local->ids.size(), 100u);
  Result<QueryResult> wire = scheme->QueryVia(remote, r);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(Sorted(wire->ids), Sorted(local->ids));
}

TEST(RemoteLimitsTest, StoreSlotIdBeyondLimitIsRejected) {
  // The store table must not grow without bound: slot ids past the
  // configured cap are refused before any blob is deserialized.
  LoopbackServer loopback;
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());

  Rng rng(3);
  Dataset data = GenerateUniform(/*n=*/10, /*domain_size=*/8, rng);
  std::unique_ptr<RangeScheme> scheme = Make(SchemeId::kLogarithmicBrc);
  ASSERT_TRUE(scheme->Build(data).ok());
  Result<ServerSetup> setup = scheme->ExportServerSetup();
  ASSERT_TRUE(setup.ok());

  server::SetupStoreRequest req;
  req.store_id = 99;
  req.kind = static_cast<uint8_t>(StoreKind::kEmm);
  req.index_blob = setup->stores[0].index_blob;
  auto resp = client.SetupStore(req);
  ASSERT_FALSE(resp.ok());
  EXPECT_NE(resp.status().message().find("slot limit"), std::string::npos);
}

TEST(RemoteLimitsTest, OversizedKeywordBatchIsRejected) {
  LoopbackServer loopback([] {
    server::ServerOptions options;
    options.max_keyword_tokens = 4;
    return options;
  }());
  server::EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());

  // Host a tiny store so the batch reaches the resolve path.
  std::vector<std::pair<Label, Bytes>> entries;
  Label label;
  label.fill(0x42);
  entries.emplace_back(label, Bytes(32, 0x01));
  ASSERT_TRUE(client.Update(entries).ok());

  server::SearchKeywordRequest req;
  req.store_id = 0;
  server::SearchKeywordRequest::Query query;
  query.query_id = 1;
  for (int i = 0; i < 5; ++i) {
    server::WireKeywordToken t;
    t.kind = 0;
    t.a = Bytes(16, static_cast<uint8_t>(i));
    t.b = Bytes(16, 0x7);
    query.tokens.push_back(t);
  }
  req.queries.push_back(query);
  auto outcome = client.SearchKeyword(req);
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().message().find("exceeds the server's limit"),
            std::string::npos);
}

}  // namespace
}  // namespace rsse
