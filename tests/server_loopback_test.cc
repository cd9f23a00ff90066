// Loopback integration test: a real rsse server on an ephemeral TCP port,
// a real client, and the acceptance contract of the batched protocol — a
// SearchBatch of overlapping ranges returns exactly the per-query results
// of ConstantScheme while expanding each deduped covering node once.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "rsse/constant.h"
#include "server/client.h"
#include "server/remote_backend.h"
#include "server/server.h"
#include "sse/emm_codec.h"
#include "sse/keyword_keys.h"

namespace rsse::server {
namespace {

/// Server on an ephemeral loopback port, serving on a background thread.
class LoopbackServer {
 public:
  explicit LoopbackServer(ServerOptions options = {}) : server_(options) {
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
  EmmServer& server() { return server_; }

 private:
  EmmServer server_;
  std::thread thread_;
};

std::vector<uint64_t> Sorted(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Ships `scheme`'s stores the way every owner does: ExportServerSetup,
/// one SetupStore frame per store slot.
Status ShipIndex(EmmClient& client, const ConstantScheme& scheme) {
  Result<ServerSetup> setup = scheme.ExportServerSetup();
  if (!setup.ok()) return setup.status();
  return InstallServerSetup(client, *setup);
}

/// The SetupStore frame payload of `scheme`'s single store, for tests that
/// drive the wire by hand.
Bytes SetupStorePayload(const ConstantScheme& scheme) {
  Result<ServerSetup> setup = scheme.ExportServerSetup();
  EXPECT_TRUE(setup.ok());
  EXPECT_EQ(setup->stores.size(), 1u);
  const StoreSetup& store = setup->stores.at(0);
  SetupStoreRequest req;
  req.store_id = store.store;
  req.kind = static_cast<uint8_t>(store.kind);
  req.index_blob = store.index_blob;
  req.gate_blob = store.gate_blob;
  return req.Encode();
}

TEST(ServerLoopbackTest, BatchedSearchMatchesPerQueryConstantScheme) {
  // Owner side: Constant-BRC over a skew-free dataset, 4-shard index.
  Rng rng(7);
  Dataset data = GenerateUniform(/*n=*/4000, /*domain_size=*/1 << 12, rng);
  ConstantScheme scheme(CoverTechnique::kBrc, /*rng_seed=*/3);
  scheme.SetShards(4);
  ASSERT_TRUE(scheme.Build(data).ok());

  // Ten overlapping ranges (including an exact duplicate, aligned
  // subranges and one past the domain's end), so covers share dyadic
  // nodes across queries.
  std::vector<Range> ranges = {
      {0, 1023},    {0, 1023},                     // duplicates: full dedupe
      {0, 511},     {512, 1023},                   // aligned halves of the 1st
      {256, 1279},  {100, 900},  {700, 1500},      // overlapping, unaligned
      {2048, 2048}, {4000, 4095},
      {4000, 5000},  // past the 4096-value domain: clipped like Query
  };
  ASSERT_GE(ranges.size(), 8u);

  // Expected: per-query in-process protocol runs.
  std::vector<std::vector<uint64_t>> expected;
  std::set<std::pair<int, Bytes>> distinct_cover_nodes;
  size_t total_tokens = 0;
  for (const Range& r : ranges) {
    Result<QueryResult> q = scheme.Query(r);
    ASSERT_TRUE(q.ok());
    expected.push_back(Sorted(q->ids));
    for (const GgmDprf::Token& t : scheme.Delegate(r)) {
      distinct_cover_nodes.insert({t.level, t.seed});
      ++total_tokens;
    }
  }
  ASSERT_LT(distinct_cover_nodes.size(), total_tokens)
      << "test ranges must share covering nodes for the dedupe assertion";

  LoopbackServer loopback([] {
    ServerOptions options;
    options.search_threads = 4;
    return options;
  }());
  EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());

  // Ship the index and issue the whole workload as ONE batched round trip.
  const Status shipped = ShipIndex(client, scheme);
  ASSERT_TRUE(shipped.ok()) << shipped.ToString();

  std::vector<EmmClient::BatchQuery> batch;
  for (size_t i = 0; i < ranges.size(); ++i) {
    EmmClient::BatchQuery q;
    q.query_id = static_cast<uint32_t>(i * 10 + 1);  // non-contiguous ids
    q.tokens = scheme.Delegate(ranges[i]);
    batch.push_back(std::move(q));
  }
  auto outcome = client.SearchBatch(batch);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // Exactness: every query's id multiset matches the in-process protocol.
  ASSERT_EQ(outcome->done.query_count, ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    const uint32_t id = static_cast<uint32_t>(i * 10 + 1);
    ASSERT_TRUE(outcome->ids.count(id)) << "missing result for query " << id;
    EXPECT_EQ(Sorted(outcome->ids[id]), expected[i])
        << "range [" << ranges[i].lo << ", " << ranges[i].hi << "]";
  }

  // Dedupe: each distinct covering node expanded exactly once, and fewer
  // expansions than tokens shipped (the ranges overlap).
  EXPECT_EQ(outcome->done.tokens_received, total_tokens);
  EXPECT_EQ(outcome->done.unique_nodes_expanded, distinct_cover_nodes.size());
  EXPECT_LT(outcome->done.unique_nodes_expanded,
            outcome->done.tokens_received);

  // Server-side cumulative stats agree.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batches_served, 1u);
  EXPECT_EQ(stats->queries_served, ranges.size());
  EXPECT_EQ(stats->tokens_received, total_tokens);
  EXPECT_EQ(stats->nodes_deduped,
            total_tokens - distinct_cover_nodes.size());
  EXPECT_EQ(stats->shards, 4u);
  EXPECT_EQ(stats->entries, scheme.index().EntryCount());
}

TEST(ServerLoopbackTest, SearchBeforeSetupReportsError) {
  LoopbackServer loopback;
  EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
  std::vector<EmmClient::BatchQuery> batch(1);
  batch[0].query_id = 1;
  auto outcome = client.SearchBatch(batch);
  EXPECT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().message().find("no index hosted"),
            std::string::npos);
}

TEST(ServerLoopbackTest, UpdateInsertsSearchableEntries) {
  LoopbackServer loopback;
  EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());

  // Owner: encrypt one keyword's postings into raw codec entries and ship
  // them through Update; then search them through the batch path... the
  // batch path needs DPRF tokens, so verify via a second Update + Stats
  // and the in-process search of a mirrored store instead.
  sse::PrfKeyDeriver deriver(Bytes(kLabelBytes, 0x66));
  std::vector<std::pair<Label, Bytes>> entries;
  sse::EmmBuildScratch scratch;
  std::vector<Bytes> payloads = {sse::EncodeIdPayload(1),
                                 sse::EncodeIdPayload(2)};
  ASSERT_TRUE(sse::EncryptKeywordEntries(
                  ToBytes("w"), payloads, deriver, /*pad_quantum=*/0, scratch,
                  [&entries](const Label& label, size_t len) {
                    entries.emplace_back(label, Bytes(len));
                    return ByteSpan(entries.back().second.data(), len);
                  })
                  .ok());
  auto update = client.Update(entries);
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->entries, entries.size());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entries, entries.size());
}

TEST(ServerLoopbackTest, OversizedTokenLevelIsRejectedNotExpanded) {
  // The wire format allows levels up to 62 (a 2^62-leaf expansion); the
  // server must reject anything past its configured cap instead of
  // attempting the allocation.
  LoopbackServer loopback;
  EmmClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());

  // Host a tiny store so the batch reaches the expansion path.
  std::vector<std::pair<Label, Bytes>> entries;
  Label label;
  label.fill(0x42);
  entries.emplace_back(label, Bytes(32, 0x01));
  ASSERT_TRUE(client.Update(entries).ok());

  EmmClient::BatchQuery query;
  query.query_id = 1;
  GgmDprf::Token huge;
  huge.seed = Bytes(kLabelBytes, 0x07);
  huge.level = 40;  // wire-legal, far past the default cap of 26
  query.tokens.push_back(huge);
  auto outcome = client.SearchBatch({query});
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().message().find("expansion limit"),
            std::string::npos);
}

TEST(ServerLoopbackTest, UpdateRacingSearchBatchIsWellDefined) {
  // Two connections hammer the server concurrently: one streams Update
  // batches while the other runs SearchBatch queries. The store table's
  // reader/writer lock must keep every search consistent (the inserted
  // labels are random, so search results never change) and every update
  // counted exactly once.
  Rng rng(11);
  Dataset data = GenerateUniform(/*n=*/2000, /*domain_size=*/1 << 10, rng);
  ConstantScheme scheme(CoverTechnique::kBrc, /*rng_seed=*/3);
  ASSERT_TRUE(scheme.Build(data).ok());

  LoopbackServer loopback([] {
    ServerOptions options;
    options.search_threads = 2;
    return options;
  }());
  {
    EmmClient setup_client;
    ASSERT_TRUE(setup_client.Connect("127.0.0.1", loopback.port()).ok());
    ASSERT_TRUE(ShipIndex(setup_client, scheme).ok());
  }
  const size_t base_entries = scheme.index().EntryCount();

  const Range range{100, 900};
  Result<QueryResult> expected = scheme.Query(range);
  ASSERT_TRUE(expected.ok());
  std::vector<uint64_t> expected_ids = Sorted(expected->ids);

  constexpr int kUpdateBatches = 40;
  constexpr int kEntriesPerBatch = 8;
  constexpr int kSearches = 40;
  std::atomic<int> failures{0};

  std::thread updater([&] {
    EmmClient client;
    if (!client.Connect("127.0.0.1", loopback.port()).ok()) {
      failures.fetch_add(1);
      return;
    }
    Rng label_rng(77);
    for (int b = 0; b < kUpdateBatches; ++b) {
      std::vector<std::pair<Label, Bytes>> entries;
      for (int i = 0; i < kEntriesPerBatch; ++i) {
        Label label;
        for (uint8_t& byte : label) {
          byte = static_cast<uint8_t>(label_rng.Uniform(0, 255));
        }
        entries.emplace_back(label, Bytes(24, 0x5A));
      }
      if (!client.Update(entries).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });

  std::thread searcher([&] {
    EmmClient client;
    if (!client.Connect("127.0.0.1", loopback.port()).ok()) {
      failures.fetch_add(1);
      return;
    }
    for (int i = 0; i < kSearches; ++i) {
      EmmClient::BatchQuery q;
      q.query_id = static_cast<uint32_t>(i);
      q.tokens = scheme.Delegate(range);
      auto outcome = client.SearchBatch({q});
      if (!outcome.ok() ||
          Sorted(outcome->ids[q.query_id]) != expected_ids) {
        failures.fetch_add(1);
        return;
      }
    }
  });

  updater.join();
  searcher.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(loopback.server().EntryCount(),
            base_entries + kUpdateBatches * kEntriesPerBatch);
}

TEST(ServerLoopbackTest, ResultFramesAreCappedAndInterleaved) {
  // With a tiny per-frame id cap, a two-query batch must stream many
  // SearchResult chunks alternating between the query ids (no query's ids
  // are buffered wholesale), terminated by one SearchDone.
  Rng rng(13);
  Dataset data = GenerateUniform(/*n=*/600, /*domain_size=*/256, rng);
  ConstantScheme scheme(CoverTechnique::kBrc, /*rng_seed=*/3);
  ASSERT_TRUE(scheme.Build(data).ok());

  LoopbackServer loopback([] {
    ServerOptions options;
    options.max_ids_per_result_frame = 4;
    return options;
  }());

  // Raw socket so individual frames stay observable.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(loopback.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const auto send_frame = [&](FrameType type, const Bytes& payload) {
    Bytes frame;
    ASSERT_TRUE(EncodeFrame(type, payload, frame));
    ASSERT_EQ(send(fd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
  };
  Bytes in;
  size_t offset = 0;
  const auto recv_frame = [&](Frame& frame) {
    for (;;) {
      const FrameParse parse = DecodeFrame(in, offset, frame, nullptr);
      if (parse == FrameParse::kFrame) return true;
      if (parse == FrameParse::kMalformed) return false;
      uint8_t chunk[4096];
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      in.insert(in.end(), chunk, chunk + n);
    }
  };

  send_frame(FrameType::kSetupStoreReq, SetupStorePayload(scheme));
  Frame frame;
  ASSERT_TRUE(recv_frame(frame));
  ASSERT_EQ(frame.type, FrameType::kSetupResp);

  // Two ranges with plenty of results each.
  SearchBatchRequest batch;
  for (uint32_t q = 0; q < 2; ++q) {
    WireQuery query;
    query.query_id = 100 + q;
    for (const GgmDprf::Token& t :
         scheme.Delegate(Range{q * 128, q * 128 + 127})) {
      WireToken wt;
      wt.level = static_cast<uint8_t>(t.level);
      std::memcpy(wt.seed.data(), t.seed.data(), kLabelBytes);
      query.tokens.push_back(wt);
    }
    batch.queries.push_back(std::move(query));
  }
  send_frame(FrameType::kSearchBatchReq, batch.Encode());

  std::map<uint32_t, std::vector<uint64_t>> ids;
  std::vector<uint32_t> frame_order;
  size_t result_frames = 0;
  for (;;) {
    ASSERT_TRUE(recv_frame(frame));
    if (frame.type == FrameType::kSearchDone) break;
    ASSERT_EQ(frame.type, FrameType::kSearchResult);
    auto result = SearchResult::Decode(frame.payload);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->ids.size(), 4u) << "frame exceeds the id cap";
    ids[result->query_id].insert(ids[result->query_id].end(),
                                 result->ids.begin(), result->ids.end());
    frame_order.push_back(result->query_id);
    ++result_frames;
  }
  close(fd);

  // Both queries return ~300 ids; at <=4 per frame that is many chunks,
  // and the round-robin emission alternates the two query ids.
  EXPECT_GT(result_frames, 20u);
  ASSERT_GE(frame_order.size(), 4u);
  EXPECT_NE(frame_order[0], frame_order[1])
      << "chunks must interleave across query ids";
  for (uint32_t q = 0; q < 2; ++q) {
    Result<QueryResult> expected =
        scheme.Query(Range{q * 128, q * 128 + 127});
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(Sorted(ids[100 + q]), Sorted(expected->ids));
  }
}

TEST(ServerLoopbackTest, MalformedFrameGetsErrorThenDisconnect) {
  LoopbackServer loopback;

  // Two hostile frames on raw sockets: a bad wire version, and the
  // retired type 1 (the legacy Setup frame, replaced by SetupStore). For
  // each the server must answer with exactly one Error frame and close,
  // never crash or hang, and keep serving everyone else.
  Bytes bad_version;
  ASSERT_TRUE(EncodeFrame(FrameType::kStatsReq, {}, bad_version));
  bad_version[4] = kWireVersion + 9;
  Bytes retired_type;
  ASSERT_TRUE(EncodeFrame(FrameType::kStatsReq, {}, retired_type));
  retired_type[5] = 1;
  const std::pair<Bytes, const char*> cases[] = {
      {bad_version, "version"},
      {retired_type, "unknown frame type"},
  };
  for (const auto& [bad, expected_error] : cases) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(loopback.port());
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(send(fd, bad.data(), bad.size(), 0),
              static_cast<ssize_t>(bad.size()));

    // Read until EOF; the stream must parse as exactly one Error frame.
    Bytes in;
    uint8_t chunk[4096];
    for (;;) {
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      in.insert(in.end(), chunk, chunk + n);
    }
    close(fd);
    size_t offset = 0;
    Frame frame;
    ASSERT_EQ(DecodeFrame(in, offset, frame, nullptr), FrameParse::kFrame)
        << expected_error;
    EXPECT_EQ(frame.type, FrameType::kError);
    auto error = ErrorResponse::Decode(frame.payload);
    ASSERT_TRUE(error.ok());
    EXPECT_NE(error->message.find(expected_error), std::string::npos)
        << error->message;
    EXPECT_EQ(offset, in.size()) << "exactly one frame before disconnect";

    // The server must still serve well-formed peers afterwards.
    EmmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", loopback.port()).ok());
    EXPECT_TRUE(client.Stats().ok());
  }
}

TEST(ServerLoopbackTest, SlowReaderIsBackpressuredNotBuffered) {
  // The backpressure acceptance case, deliberately on a ONE-worker pool:
  // a drip-reading client stuck mid-stream must park (releasing its
  // worker and capping its outbound queue) rather than buffer the whole
  // result set — otherwise the fast client below would hang forever.
  Rng rng(29);
  // Big enough that the full-domain result overflows the kernel's socket
  // buffers, so unsent output accumulates server-side where the cap
  // applies.
  Dataset data = GenerateUniform(/*n=*/40000, /*domain_size=*/1 << 16, rng);
  ConstantScheme scheme(CoverTechnique::kBrc, /*rng_seed=*/3);
  scheme.SetShards(2);
  ASSERT_TRUE(scheme.Build(data).ok());

  constexpr size_t kMaxOutbound = 32 * 1024;
  LoopbackServer loopback([] {
    ServerOptions options;
    options.search_workers = 1;
    options.max_outbound_bytes = kMaxOutbound;
    options.max_ids_per_result_frame = 512;  // frames well under the cap
    return options;
  }());
  {
    EmmClient setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", loopback.port()).ok());
    ASSERT_TRUE(ShipIndex(setup, scheme).ok());
  }

  // The slow reader: tiny receive window, one full-domain query, and no
  // reads until the end of the test.
  const int slow_fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow_fd, 0);
  const int rcvbuf = 4096;
  setsockopt(slow_fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(loopback.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      connect(slow_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      0);
  {
    SearchBatchRequest req;
    WireQuery query;
    query.query_id = 7;
    for (const GgmDprf::Token& t :
         scheme.Delegate(Range{0, (1 << 16) - 1})) {
      WireToken wt;
      wt.level = static_cast<uint8_t>(t.level);
      std::memcpy(wt.seed.data(), t.seed.data(), kLabelBytes);
      query.tokens.push_back(wt);
    }
    req.queries.push_back(std::move(query));
    Bytes frame;
    ASSERT_TRUE(EncodeFrame(FrameType::kSearchBatchReq, req.Encode(), frame));
    ASSERT_EQ(send(slow_fd, frame.data(), frame.size(), 0),
              static_cast<ssize_t>(frame.size()));
  }

  // While the slow stream is stalled, a well-behaved client's queries
  // must still be served — with one worker, that is only possible if the
  // stalled job parks instead of holding it. (If parking were broken,
  // these calls would block until the 30 s client timeout.)
  EmmClient fast;
  ASSERT_TRUE(fast.Connect("127.0.0.1", loopback.port()).ok());
  for (int i = 0; i < 10; ++i) {
    const uint64_t lo = static_cast<uint64_t>(i) * 1024;
    EmmClient::BatchQuery q;
    q.query_id = static_cast<uint32_t>(i);
    q.tokens = scheme.Delegate(Range{lo, lo + 1023});
    auto outcome = fast.SearchBatch({q});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    Result<QueryResult> expected = scheme.Query(Range{lo, lo + 1023});
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(Sorted(outcome->ids[q.query_id]), Sorted(expected->ids));
  }

  // The stalled connection's unsent output stayed under the high-water
  // mark the whole time (the gauge records the running maximum).
  EXPECT_LE(loopback.server().stats().peak_outbound_bytes.value(),
            kMaxOutbound);

  // Now drain the slow socket: the parked stream must resume through
  // park/unpark cycles and deliver the exact full-domain result.
  Bytes in;
  size_t offset = 0;
  std::vector<uint64_t> slow_ids;
  bool done = false;
  while (!done) {
    Frame frame;
    const FrameParse parse = DecodeFrame(in, offset, frame, nullptr);
    if (parse == FrameParse::kNeedMore) {
      uint8_t chunk[4096];
      const ssize_t n = recv(slow_fd, chunk, sizeof(chunk), 0);
      ASSERT_GT(n, 0) << "server closed mid-stream";
      in.insert(in.end(), chunk, chunk + n);
      continue;
    }
    ASSERT_EQ(parse, FrameParse::kFrame);
    if (frame.type == FrameType::kSearchDone) {
      done = true;
      break;
    }
    ASSERT_EQ(frame.type, FrameType::kSearchResult);
    auto result = SearchResult::Decode(frame.payload);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->query_id, 7u);
    slow_ids.insert(slow_ids.end(), result->ids.begin(), result->ids.end());
  }
  close(slow_fd);

  Result<QueryResult> expected = scheme.Query(Range{0, (1 << 16) - 1});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Sorted(std::move(slow_ids)), Sorted(expected->ids));
  EXPECT_LE(loopback.server().stats().peak_outbound_bytes.value(),
            kMaxOutbound);
}

TEST(ServerLoopbackTest, PipelinedRequestsAnswerInOrder) {
  // Requests pipelined onto one connection (no waiting for responses)
  // must come back strictly in request order: the per-connection job
  // queue runs one job at a time, FIFO.
  Rng rng(31);
  Dataset data = GenerateUniform(/*n=*/2000, /*domain_size=*/1 << 12, rng);
  ConstantScheme scheme(CoverTechnique::kBrc, /*rng_seed=*/3);
  ASSERT_TRUE(scheme.Build(data).ok());

  LoopbackServer loopback([] {
    ServerOptions options;
    options.search_workers = 4;
    return options;
  }());

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(loopback.port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // One buffer, four frames, one send: SetupStore, two searches, Stats.
  Bytes wire;
  {
    ASSERT_TRUE(EncodeFrame(FrameType::kSetupStoreReq,
                            SetupStorePayload(scheme), wire));
    for (uint32_t q = 0; q < 2; ++q) {
      SearchBatchRequest req;
      WireQuery query;
      query.query_id = 500 + q;
      for (const GgmDprf::Token& t :
           scheme.Delegate(Range{q * 1024, q * 1024 + 1023})) {
        WireToken wt;
        wt.level = static_cast<uint8_t>(t.level);
        std::memcpy(wt.seed.data(), t.seed.data(), kLabelBytes);
        query.tokens.push_back(wt);
      }
      req.queries.push_back(std::move(query));
      ASSERT_TRUE(
          EncodeFrame(FrameType::kSearchBatchReq, req.Encode(), wire));
    }
    ASSERT_TRUE(EncodeFrame(FrameType::kStatsReq, {}, wire));
  }
  ASSERT_EQ(send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  Bytes in;
  size_t offset = 0;
  Frame frame;
  const auto recv_frame = [&]() {
    for (;;) {
      const FrameParse parse = DecodeFrame(in, offset, frame, nullptr);
      if (parse == FrameParse::kFrame) return true;
      if (parse == FrameParse::kMalformed) return false;
      uint8_t chunk[4096];
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      in.insert(in.end(), chunk, chunk + n);
    }
  };

  // Response 1: the setup ack.
  ASSERT_TRUE(recv_frame());
  ASSERT_EQ(frame.type, FrameType::kSetupResp);
  // Responses 2 and 3: each search's full stream (results, then its
  // done), in request order, with no frames of the other search
  // interleaved between them.
  for (uint32_t q = 0; q < 2; ++q) {
    std::vector<uint64_t> ids;
    for (;;) {
      ASSERT_TRUE(recv_frame());
      if (frame.type == FrameType::kSearchDone) break;
      ASSERT_EQ(frame.type, FrameType::kSearchResult);
      auto result = SearchResult::Decode(frame.payload);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->query_id, 500 + q)
          << "pipelined responses out of request order";
      ids.insert(ids.end(), result->ids.begin(), result->ids.end());
    }
    Result<QueryResult> expected =
        scheme.Query(Range{q * 1024, q * 1024 + 1023});
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(Sorted(std::move(ids)), Sorted(expected->ids));
  }
  // Response 4: the stats snapshot, reflecting both served batches.
  ASSERT_TRUE(recv_frame());
  ASSERT_EQ(frame.type, FrameType::kStatsResp);
  auto stats = StatsResponse::Decode(frame.payload);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->batches_served, 2u);
  close(fd);
}

}  // namespace
}  // namespace rsse::server
