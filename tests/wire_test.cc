#include "server/wire.h"

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace rsse::server {
namespace {

Label MakeLabel(uint8_t fill) {
  Label l;
  l.fill(fill);
  return l;
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

TEST(WireFrameTest, RoundTrip) {
  Bytes stream;
  const Bytes payload = ToBytes("hello frames");
  ASSERT_TRUE(EncodeFrame(FrameType::kStatsReq, ConstByteSpan(payload.data(),
                                                  payload.size()),
              stream));
  ASSERT_TRUE(EncodeFrame(FrameType::kSearchDone, {}, stream));

  size_t offset = 0;
  Frame frame;
  ASSERT_EQ(DecodeFrame(stream, offset, frame, nullptr), FrameParse::kFrame);
  EXPECT_EQ(frame.type, FrameType::kStatsReq);
  EXPECT_EQ(frame.payload, payload);
  ASSERT_EQ(DecodeFrame(stream, offset, frame, nullptr), FrameParse::kFrame);
  EXPECT_EQ(frame.type, FrameType::kSearchDone);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(offset, stream.size());
  EXPECT_EQ(DecodeFrame(stream, offset, frame, nullptr),
            FrameParse::kNeedMore);
}

TEST(WireFrameTest, TruncationAtEveryPrefixNeedsMoreNeverCrashes) {
  Bytes stream;
  const Bytes payload = ToBytes("some payload bytes");
  ASSERT_TRUE(EncodeFrame(FrameType::kSetupStoreReq,
              ConstByteSpan(payload.data(), payload.size()), stream));
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    Bytes prefix(stream.begin(), stream.begin() + static_cast<long>(cut));
    size_t offset = 0;
    Frame frame;
    EXPECT_EQ(DecodeFrame(prefix, offset, frame, nullptr),
              FrameParse::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(offset, 0u);
  }
}

TEST(WireFrameTest, RejectsOversizedLength) {
  Bytes stream;
  AppendUint32(stream, kMaxFrameBytes + 1);
  stream.push_back(kWireVersion);
  stream.push_back(static_cast<uint8_t>(FrameType::kStatsReq));
  size_t offset = 0;
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(stream, offset, frame, &error),
            FrameParse::kMalformed);
  EXPECT_NE(error.find("kMaxFrameBytes"), std::string::npos);
}

TEST(WireFrameTest, RejectsUndersizedLength) {
  Bytes stream;
  AppendUint32(stream, 1);  // cannot even hold version + type
  stream.push_back(kWireVersion);
  size_t offset = 0;
  Frame frame;
  EXPECT_EQ(DecodeFrame(stream, offset, frame, nullptr),
            FrameParse::kMalformed);
}

TEST(WireFrameTest, RejectsVersionMismatch) {
  Bytes stream;
  ASSERT_TRUE(EncodeFrame(FrameType::kStatsReq, {}, stream));
  stream[4] = kWireVersion + 1;
  size_t offset = 0;
  Frame frame;
  std::string error;
  EXPECT_EQ(DecodeFrame(stream, offset, frame, &error),
            FrameParse::kMalformed);
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(WireFrameTest, RejectsUnknownType) {
  // 200 was never assigned; 1 is the retired legacy Setup frame, which
  // owners replaced with SetupStore. Both are unknown to the framer.
  for (const uint8_t type : {uint8_t{200}, uint8_t{1}}) {
    Bytes stream;
    ASSERT_TRUE(EncodeFrame(FrameType::kStatsReq, {}, stream));
    stream[5] = type;
    size_t offset = 0;
    Frame frame;
    std::string error;
    EXPECT_EQ(DecodeFrame(stream, offset, frame, &error),
              FrameParse::kMalformed)
        << "type " << int(type);
    EXPECT_NE(error.find("unknown frame type"), std::string::npos);
    EXPECT_EQ(offset, 0u);
  }
}

TEST(WireFrameTest, ErrorDrainingFrameRoundTrip) {
  // The draining refusal is a first-class frame: it carries a normal
  // ErrorResponse payload under its own type so clients can tell a
  // retryable drain apart from a hard protocol error.
  ErrorResponse resp;
  resp.message = "server draining; retry against the restarted server";
  const Bytes payload = resp.Encode();
  Bytes stream;
  ASSERT_TRUE(EncodeFrame(FrameType::kErrorDraining,
                          ConstByteSpan(payload.data(), payload.size()),
                          stream));
  size_t offset = 0;
  Frame frame;
  ASSERT_EQ(DecodeFrame(stream, offset, frame, nullptr), FrameParse::kFrame);
  EXPECT_EQ(frame.type, FrameType::kErrorDraining);
  auto decoded = ErrorResponse::Decode(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->message, resp.message);
}

TEST(WireFrameTest, ErrorDrainingIsTheLastKnownType) {
  // kErrorDraining sits at the top of the accepted range; its successor
  // must stay malformed until a protocol revision deliberately claims it.
  Bytes stream;
  ASSERT_TRUE(EncodeFrame(FrameType::kErrorDraining, {}, stream));
  size_t offset = 0;
  Frame frame;
  ASSERT_EQ(DecodeFrame(stream, offset, frame, nullptr), FrameParse::kFrame);
  EXPECT_EQ(frame.type, FrameType::kErrorDraining);

  stream.clear();
  ASSERT_TRUE(EncodeFrame(FrameType::kErrorDraining, {}, stream));
  stream[5] = static_cast<uint8_t>(FrameType::kErrorDraining) + 1;
  offset = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(stream, offset, frame, &error),
            FrameParse::kMalformed);
  EXPECT_NE(error.find("unknown frame type"), std::string::npos);
}

TEST(WireFrameTest, ErrorDrainingFuzzEveryTruncationAndByteFlip) {
  ErrorResponse resp;
  resp.message = "draining";
  const Bytes payload = resp.Encode();
  Bytes stream;
  ASSERT_TRUE(EncodeFrame(FrameType::kErrorDraining,
                          ConstByteSpan(payload.data(), payload.size()),
                          stream));
  // Truncations: every strict prefix wants more bytes, never faults.
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    Bytes prefix(stream.begin(), stream.begin() + static_cast<long>(cut));
    size_t offset = 0;
    Frame frame;
    EXPECT_EQ(DecodeFrame(prefix, offset, frame, nullptr),
              FrameParse::kNeedMore)
        << "cut at " << cut;
  }
  // Byte flips: the frame either still decodes (payload flips — the typed
  // ErrorResponse decoder gets its own say) or is malformed; no flip may
  // crash, and a flip that survives DecodeFrame must decode or reject
  // cleanly as an ErrorResponse too.
  for (size_t pos = 0; pos < stream.size(); ++pos) {
    Bytes mutated = stream;
    mutated[pos] ^= 0x40;
    size_t offset = 0;
    Frame frame;
    const FrameParse parse = DecodeFrame(mutated, offset, frame, nullptr);
    if (parse == FrameParse::kFrame) {
      ErrorResponse::Decode(frame.payload);
    }
  }
}

// ---------------------------------------------------------------------------
// Typed payloads
// ---------------------------------------------------------------------------

TEST(WirePayloadTest, SetupRoundTrip) {
  SetupResponse resp;
  resp.shards = 8;
  resp.entries = 123456789;
  auto decoded_resp = SetupResponse::Decode(resp.Encode());
  ASSERT_TRUE(decoded_resp.ok());
  EXPECT_EQ(decoded_resp->shards, 8u);
  EXPECT_EQ(decoded_resp->entries, 123456789u);
}

TEST(WirePayloadTest, SearchBatchRoundTrip) {
  SearchBatchRequest req;
  for (uint32_t q = 0; q < 3; ++q) {
    WireQuery query;
    query.query_id = 100 + q;
    for (uint8_t t = 0; t < 4; ++t) {
      query.tokens.push_back(WireToken{static_cast<uint8_t>(t + q),
                                       MakeLabel(static_cast<uint8_t>(t))});
    }
    req.queries.push_back(query);
  }
  auto decoded = SearchBatchRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->queries.size(), 3u);
  for (uint32_t q = 0; q < 3; ++q) {
    EXPECT_EQ(decoded->queries[q].query_id, 100 + q);
    EXPECT_EQ(decoded->queries[q].tokens, req.queries[q].tokens);
  }
}

TEST(WirePayloadTest, SearchBatchRejectsCorruption) {
  SearchBatchRequest req;
  WireQuery query;
  query.query_id = 7;
  query.tokens.push_back(WireToken{5, MakeLabel(0xab)});
  req.queries.push_back(query);
  const Bytes good = req.Encode();

  // Truncation at every cut point must fail cleanly, never crash.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(SearchBatchRequest::Decode(bad).ok()) << "cut " << cut;
  }

  // Query count far beyond what the bytes can hold.
  Bytes inflated = good;
  inflated[0] = 0xff;
  EXPECT_FALSE(SearchBatchRequest::Decode(inflated).ok());

  // Token level out of the GGM range.
  Bytes bad_level = good;
  bad_level[12] = 63;  // 4 count + 4 id + 4 token count → level byte
  EXPECT_FALSE(SearchBatchRequest::Decode(bad_level).ok());

  // Trailing garbage.
  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(SearchBatchRequest::Decode(trailing).ok());
}

TEST(WirePayloadTest, SearchResultRoundTripAndCorruption) {
  SearchResult result;
  result.query_id = 42;
  result.ids = {1, 2, 3, 1ull << 60};
  auto decoded = SearchResult::Decode(result.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->query_id, 42u);
  EXPECT_EQ(decoded->ids, result.ids);

  Bytes good = result.Encode();
  // Claim more ids than the payload holds.
  good[11] = 0xff;
  EXPECT_FALSE(SearchResult::Decode(good).ok());
}

TEST(WirePayloadTest, SearchDoneRoundTrip) {
  SearchDone done;
  done.query_count = 9;
  done.tokens_received = 40;
  done.unique_nodes_expanded = 25;
  done.leaves_searched = 4096;
  done.search_nanos = 123456;
  auto decoded = SearchDone::Decode(done.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->query_count, 9u);
  EXPECT_EQ(decoded->tokens_received, 40u);
  EXPECT_EQ(decoded->unique_nodes_expanded, 25u);
  EXPECT_EQ(decoded->leaves_searched, 4096u);
  EXPECT_EQ(decoded->search_nanos, 123456u);
  EXPECT_FALSE(SearchDone::Decode(ToBytes("short")).ok());
}

TEST(WirePayloadTest, SearchDoneCarriesSkippedDecrypts) {
  SearchDone done;
  done.query_count = 1;
  done.skipped_decrypts = 77;
  auto decoded = SearchDone::Decode(done.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->skipped_decrypts, 77u);
}

TEST(WirePayloadTest, SetupStoreRoundTripAndCorruption) {
  SetupStoreRequest req;
  req.store_id = 1;
  req.kind = 1;
  req.index_blob = Bytes(37, 0xCD);
  req.gate_blob = Bytes(9, 0x11);
  const Bytes good = req.Encode();
  auto decoded = SetupStoreRequest::Decode(good);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->store_id, 1u);
  EXPECT_EQ(decoded->kind, 1);
  EXPECT_EQ(decoded->index_blob, req.index_blob);
  EXPECT_EQ(decoded->gate_blob, req.gate_blob);

  // Empty gate blob round-trips too.
  req.gate_blob.clear();
  auto no_gate = SetupStoreRequest::Decode(req.Encode());
  ASSERT_TRUE(no_gate.ok());
  EXPECT_TRUE(no_gate->gate_blob.empty());

  // Truncation at every cut point must fail cleanly, never crash.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(SetupStoreRequest::Decode(bad).ok()) << "cut " << cut;
  }

  // Index blob length far beyond the payload.
  Bytes inflated = good;
  inflated[5] = 0xff;  // high byte of the u64 index length
  EXPECT_FALSE(SetupStoreRequest::Decode(inflated).ok());

  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(SetupStoreRequest::Decode(trailing).ok());
}

TEST(WirePayloadTest, SearchKeywordRoundTripAndCorruption) {
  SearchKeywordRequest req;
  req.store_id = 1;
  SearchKeywordRequest::Query query;
  query.query_id = 5;
  WireKeywordToken keyword;
  keyword.kind = 0;
  keyword.a = Bytes(16, 0xA1);
  keyword.b = Bytes(16, 0xB2);
  query.tokens.push_back(keyword);
  WireKeywordToken trapdoor;
  trapdoor.kind = 1;
  trapdoor.a = Bytes(16, 0xC3);
  query.tokens.push_back(trapdoor);
  req.queries.push_back(query);

  const Bytes good = req.Encode();
  auto decoded = SearchKeywordRequest::Decode(good);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->store_id, 1u);
  ASSERT_EQ(decoded->queries.size(), 1u);
  EXPECT_EQ(decoded->queries[0].query_id, 5u);
  EXPECT_EQ(decoded->queries[0].tokens, query.tokens);

  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(SearchKeywordRequest::Decode(bad).ok()) << "cut " << cut;
  }

  // Query count beyond what the bytes can hold.
  Bytes inflated = good;
  inflated[4] = 0xff;
  EXPECT_FALSE(SearchKeywordRequest::Decode(inflated).ok());

  // Token kind outside {0, 1}.
  Bytes bad_kind = good;
  bad_kind[16] = 7;  // 4 store + 4 count + 4 id + 4 token count → kind
  EXPECT_FALSE(SearchKeywordRequest::Decode(bad_kind).ok());

  // Token part length above the per-part cap.
  SearchKeywordRequest big;
  SearchKeywordRequest::Query big_query;
  big_query.query_id = 1;
  WireKeywordToken big_token;
  big_token.kind = 1;
  big_token.a = Bytes(kMaxKeywordTokenPartBytes + 1, 0xEE);
  big_query.tokens.push_back(big_token);
  big.queries.push_back(big_query);
  EXPECT_FALSE(SearchKeywordRequest::Decode(big.Encode()).ok());

  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(SearchKeywordRequest::Decode(trailing).ok());
}

TEST(WirePayloadTest, SearchPayloadRoundTripAndCorruption) {
  SearchPayloadResult result;
  result.query_id = 9;
  result.payloads = {Bytes(8, 0x01), Bytes(24, 0x02), Bytes{}};
  const Bytes good = result.Encode();
  auto decoded = SearchPayloadResult::Decode(good);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->query_id, 9u);
  EXPECT_EQ(decoded->payloads, result.payloads);

  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(SearchPayloadResult::Decode(bad).ok()) << "cut " << cut;
  }

  // Payload count far beyond what the bytes can hold.
  Bytes inflated = good;
  inflated[4] = 0xff;
  EXPECT_FALSE(SearchPayloadResult::Decode(inflated).ok());

  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(SearchPayloadResult::Decode(trailing).ok());
}

TEST(WirePayloadTest, UpdateRoundTripAndCorruption) {
  UpdateRequest req;
  req.entries.emplace_back(MakeLabel(0x01), ToBytes("ciphertext-one"));
  req.entries.emplace_back(MakeLabel(0x02), ToBytes("ciphertext-two"));
  auto decoded = UpdateRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[0].first, MakeLabel(0x01));
  EXPECT_EQ(decoded->entries[1].second, ToBytes("ciphertext-two"));

  const Bytes good = req.Encode();
  for (size_t cut = 0; cut < good.size(); ++cut) {
    Bytes bad(good.begin(), good.begin() + static_cast<long>(cut));
    EXPECT_FALSE(UpdateRequest::Decode(bad).ok()) << "cut " << cut;
  }
}

TEST(WirePayloadTest, StatsAndErrorRoundTrip) {
  StatsResponse stats;
  stats.entries = 10;
  stats.size_bytes = 100;
  stats.shards = 4;
  stats.batches_served = 3;
  stats.queries_served = 24;
  stats.tokens_received = 96;
  stats.nodes_deduped = 40;
  auto decoded = StatsResponse::Decode(stats.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->nodes_deduped, 40u);
  EXPECT_EQ(decoded->shards, 4u);

  ErrorResponse error;
  error.message = "no index hosted";
  auto decoded_err = ErrorResponse::Decode(error.Encode());
  ASSERT_TRUE(decoded_err.ok());
  EXPECT_EQ(decoded_err->message, "no index hosted");
}

}  // namespace
}  // namespace rsse::server
