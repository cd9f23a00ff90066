#include "server/wire.h"

#include <cstring>

namespace rsse::server {

namespace {

/// Bounds-checked big-endian reader over a frame payload. Every accessor
/// degrades to "failed" instead of over-reading, so typed decoders are a
/// straight-line sequence of reads plus one final ok()/AtEnd() check.
class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && offset_ == data_.size(); }
  size_t remaining() const { return ok_ ? data_.size() - offset_ : 0; }

  uint8_t U8() {
    if (!Require(1)) return 0;
    return data_[offset_++];
  }

  uint32_t U32() {
    if (!Require(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[offset_++];
    return v;
  }

  uint64_t U64() {
    if (!Require(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[offset_++];
    return v;
  }

  void Raw(uint8_t* out, size_t n) {
    if (!Require(n)) return;
    std::memcpy(out, data_.data() + offset_, n);
    offset_ += n;
  }

  Bytes Blob(size_t n) {
    if (!Require(n)) return {};
    Bytes out(data_.begin() + static_cast<long>(offset_),
              data_.begin() + static_cast<long>(offset_ + n));
    offset_ += n;
    return out;
  }

 private:
  bool Require(size_t n) {
    if (!ok_ || data_.size() - offset_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const Bytes& data_;
  size_t offset_ = 0;
  bool ok_ = true;
};

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed frame payload: ") +
                                 what);
}

}  // namespace

bool EncodeFrame(FrameType type, ConstByteSpan payload, Bytes& out) {
  if (payload.size() > kMaxFrameBytes - 2) return false;
  const uint32_t len = static_cast<uint32_t>(2 + payload.size());
  AppendUint32(out, len);
  AppendByte(out, kWireVersion);
  AppendByte(out, static_cast<uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
  return true;
}

FrameParse DecodeFrame(const Bytes& buf, size_t& offset, Frame& frame,
                       std::string* error) {
  if (buf.size() - offset < 4) return FrameParse::kNeedMore;
  const uint32_t len = ReadUint32(buf, offset);
  if (len < 2) {
    if (error != nullptr) *error = "frame length below header size";
    return FrameParse::kMalformed;
  }
  if (len > kMaxFrameBytes) {
    if (error != nullptr) *error = "frame length exceeds kMaxFrameBytes";
    return FrameParse::kMalformed;
  }
  if (buf.size() - offset - 4 < len) return FrameParse::kNeedMore;
  const uint8_t version = buf[offset + 4];
  if (version != kWireVersion) {
    if (error != nullptr) *error = "unsupported wire version";
    return FrameParse::kMalformed;
  }
  const uint8_t type = buf[offset + 5];
  if (type < static_cast<uint8_t>(FrameType::kSetupResp) ||
      type > static_cast<uint8_t>(FrameType::kErrorDraining)) {
    if (error != nullptr) *error = "unknown frame type";
    return FrameParse::kMalformed;
  }
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(buf.begin() + static_cast<long>(offset + 6),
                       buf.begin() + static_cast<long>(offset + 4 + len));
  offset += 4 + len;
  return FrameParse::kFrame;
}

// --------------------------------------------------------------------------
// Setup
// --------------------------------------------------------------------------

Bytes SetupResponse::Encode() const {
  Bytes out;
  AppendUint32(out, shards);
  AppendUint64(out, entries);
  return out;
}

Result<SetupResponse> SetupResponse::Decode(const Bytes& payload) {
  Reader r(payload);
  SetupResponse resp;
  resp.shards = r.U32();
  resp.entries = r.U64();
  if (!r.AtEnd()) return Malformed("setup response");
  return resp;
}

// --------------------------------------------------------------------------
// SearchBatch
// --------------------------------------------------------------------------

Bytes SearchBatchRequest::Encode() const {
  Bytes out;
  AppendUint32(out, static_cast<uint32_t>(queries.size()));
  for (const WireQuery& q : queries) {
    AppendUint32(out, q.query_id);
    AppendUint32(out, static_cast<uint32_t>(q.tokens.size()));
    for (const WireToken& t : q.tokens) {
      AppendByte(out, t.level);
      out.insert(out.end(), t.seed.begin(), t.seed.end());
    }
  }
  return out;
}

Result<SearchBatchRequest> SearchBatchRequest::Decode(const Bytes& payload) {
  Reader r(payload);
  const uint32_t query_count = r.U32();
  // Each query needs at least its 8-byte header; reject counts the
  // remaining bytes cannot possibly hold before reserving.
  if (!r.ok() || query_count > r.remaining() / 8) {
    return Malformed("search batch query count");
  }
  SearchBatchRequest req;
  req.queries.reserve(query_count);
  for (uint32_t q = 0; q < query_count; ++q) {
    WireQuery query;
    query.query_id = r.U32();
    const uint32_t token_count = r.U32();
    if (!r.ok() || token_count > r.remaining() / (1 + kLabelBytes)) {
      return Malformed("search batch token count");
    }
    query.tokens.reserve(token_count);
    for (uint32_t t = 0; t < token_count; ++t) {
      WireToken token;
      token.level = r.U8();
      r.Raw(token.seed.data(), token.seed.size());
      if (!r.ok()) return Malformed("search batch token");
      if (token.level > 62) return Malformed("token level out of range");
      query.tokens.push_back(token);
    }
    req.queries.push_back(std::move(query));
  }
  if (!r.AtEnd()) return Malformed("search batch trailing bytes");
  return req;
}

Bytes SearchResult::Encode() const {
  Bytes out;
  out.reserve(12 + ids.size() * 8);
  AppendUint32(out, query_id);
  AppendUint64(out, ids.size());
  for (uint64_t id : ids) AppendUint64(out, id);
  return out;
}

Result<SearchResult> SearchResult::Decode(const Bytes& payload) {
  Reader r(payload);
  SearchResult res;
  res.query_id = r.U32();
  const uint64_t count = r.U64();
  if (!r.ok() || count != r.remaining() / 8 || count * 8 != r.remaining()) {
    return Malformed("search result id count");
  }
  res.ids.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) res.ids.push_back(r.U64());
  if (!r.AtEnd()) return Malformed("search result trailing bytes");
  return res;
}

Bytes SearchDone::Encode() const {
  Bytes out;
  AppendUint32(out, query_count);
  AppendUint64(out, tokens_received);
  AppendUint64(out, unique_nodes_expanded);
  AppendUint64(out, leaves_searched);
  AppendUint64(out, search_nanos);
  AppendUint64(out, skipped_decrypts);
  return out;
}

Result<SearchDone> SearchDone::Decode(const Bytes& payload) {
  Reader r(payload);
  SearchDone done;
  done.query_count = r.U32();
  done.tokens_received = r.U64();
  done.unique_nodes_expanded = r.U64();
  done.leaves_searched = r.U64();
  done.search_nanos = r.U64();
  done.skipped_decrypts = r.U64();
  if (!r.AtEnd()) return Malformed("search done");
  return done;
}

// --------------------------------------------------------------------------
// SetupStore / SearchKeyword / SearchPayload (wire v2)
// --------------------------------------------------------------------------

Bytes SetupStoreRequest::Encode() const {
  Bytes out;
  out.reserve(4 + 1 + 16 + index_blob.size() + gate_blob.size());
  AppendUint32(out, store_id);
  AppendByte(out, kind);
  AppendUint64(out, index_blob.size());
  Append(out, index_blob);
  AppendUint64(out, gate_blob.size());
  Append(out, gate_blob);
  return out;
}

Result<SetupStoreRequest> SetupStoreRequest::Decode(const Bytes& payload) {
  Reader r(payload);
  SetupStoreRequest req;
  req.store_id = r.U32();
  req.kind = r.U8();
  const uint64_t index_len = r.U64();
  if (!r.ok() || index_len > r.remaining()) {
    return Malformed("setup store index blob length");
  }
  req.index_blob = r.Blob(static_cast<size_t>(index_len));
  const uint64_t gate_len = r.U64();
  if (!r.ok() || gate_len != r.remaining()) {
    return Malformed("setup store gate blob length");
  }
  req.gate_blob = r.Blob(static_cast<size_t>(gate_len));
  if (!r.AtEnd()) return Malformed("setup store trailing bytes");
  return req;
}

Bytes SearchKeywordRequest::Encode() const {
  Bytes out;
  AppendUint32(out, store_id);
  AppendUint32(out, static_cast<uint32_t>(queries.size()));
  for (const Query& q : queries) {
    AppendUint32(out, q.query_id);
    AppendUint32(out, static_cast<uint32_t>(q.tokens.size()));
    for (const WireKeywordToken& t : q.tokens) {
      AppendByte(out, t.kind);
      AppendUint32(out, static_cast<uint32_t>(t.a.size()));
      Append(out, t.a);
      AppendUint32(out, static_cast<uint32_t>(t.b.size()));
      Append(out, t.b);
    }
  }
  return out;
}

Result<SearchKeywordRequest> SearchKeywordRequest::Decode(
    const Bytes& payload) {
  Reader r(payload);
  SearchKeywordRequest req;
  req.store_id = r.U32();
  const uint32_t query_count = r.U32();
  // Each query needs at least its 8-byte header; reject counts the
  // remaining bytes cannot possibly hold before reserving.
  if (!r.ok() || query_count > r.remaining() / 8) {
    return Malformed("keyword batch query count");
  }
  req.queries.reserve(query_count);
  for (uint32_t q = 0; q < query_count; ++q) {
    Query query;
    query.query_id = r.U32();
    const uint32_t token_count = r.U32();
    // Minimal token: kind byte + two empty length-prefixed parts.
    if (!r.ok() || token_count > r.remaining() / 9) {
      return Malformed("keyword batch token count");
    }
    query.tokens.reserve(token_count);
    for (uint32_t t = 0; t < token_count; ++t) {
      WireKeywordToken token;
      token.kind = r.U8();
      if (token.kind > 1) return Malformed("keyword token kind");
      const uint32_t a_len = r.U32();
      if (!r.ok() || a_len > kMaxKeywordTokenPartBytes ||
          a_len > r.remaining()) {
        return Malformed("keyword token part length");
      }
      token.a = r.Blob(a_len);
      const uint32_t b_len = r.U32();
      if (!r.ok() || b_len > kMaxKeywordTokenPartBytes ||
          b_len > r.remaining()) {
        return Malformed("keyword token part length");
      }
      token.b = r.Blob(b_len);
      if (!r.ok()) return Malformed("keyword token");
      query.tokens.push_back(std::move(token));
    }
    req.queries.push_back(std::move(query));
  }
  if (!r.AtEnd()) return Malformed("keyword batch trailing bytes");
  return req;
}

Bytes SearchPayloadResult::Encode() const {
  Bytes out;
  size_t total = 12;
  for (const Bytes& p : payloads) total += 4 + p.size();
  out.reserve(total);
  AppendUint32(out, query_id);
  AppendUint64(out, payloads.size());
  for (const Bytes& p : payloads) {
    AppendUint32(out, static_cast<uint32_t>(p.size()));
    Append(out, p);
  }
  return out;
}

Result<SearchPayloadResult> SearchPayloadResult::Decode(
    const Bytes& payload) {
  Reader r(payload);
  SearchPayloadResult res;
  res.query_id = r.U32();
  const uint64_t count = r.U64();
  // Each payload needs at least its 4-byte length prefix.
  if (!r.ok() || count > r.remaining() / 4) {
    return Malformed("search payload count");
  }
  res.payloads.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    const uint32_t len = r.U32();
    if (!r.ok() || len > r.remaining()) {
      return Malformed("search payload length");
    }
    res.payloads.push_back(r.Blob(len));
  }
  if (!r.AtEnd()) return Malformed("search payload trailing bytes");
  return res;
}

// --------------------------------------------------------------------------
// Update
// --------------------------------------------------------------------------

Bytes UpdateRequest::Encode() const {
  Bytes out;
  AppendUint32(out, static_cast<uint32_t>(entries.size()));
  for (const auto& [label, value] : entries) {
    out.insert(out.end(), label.begin(), label.end());
    AppendUint32(out, static_cast<uint32_t>(value.size()));
    Append(out, value);
  }
  return out;
}

Result<UpdateRequest> UpdateRequest::Decode(const Bytes& payload) {
  Reader r(payload);
  const uint32_t count = r.U32();
  if (!r.ok() || count > r.remaining() / (kLabelBytes + 4 + 1)) {
    return Malformed("update entry count");
  }
  UpdateRequest req;
  req.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Label label;
    r.Raw(label.data(), label.size());
    const uint32_t value_len = r.U32();
    if (!r.ok() || value_len == 0 || value_len > r.remaining()) {
      return Malformed("update entry value");
    }
    req.entries.emplace_back(label, r.Blob(value_len));
  }
  if (!r.AtEnd()) return Malformed("update trailing bytes");
  return req;
}

Bytes UpdateResponse::Encode() const {
  Bytes out;
  AppendUint64(out, entries);
  return out;
}

Result<UpdateResponse> UpdateResponse::Decode(const Bytes& payload) {
  Reader r(payload);
  UpdateResponse resp;
  resp.entries = r.U64();
  if (!r.AtEnd()) return Malformed("update response");
  return resp;
}

// --------------------------------------------------------------------------
// Stats / Error
// --------------------------------------------------------------------------

Bytes StatsResponse::Encode() const {
  Bytes out;
  AppendUint64(out, entries);
  AppendUint64(out, size_bytes);
  AppendUint32(out, shards);
  AppendUint64(out, batches_served);
  AppendUint64(out, queries_served);
  AppendUint64(out, tokens_received);
  AppendUint64(out, nodes_deduped);
  AppendUint64(out, mapped_bytes);
  AppendUint64(out, heap_bytes);
  out.push_back(snapshot_format);
  return out;
}

Result<StatsResponse> StatsResponse::Decode(const Bytes& payload) {
  Reader r(payload);
  StatsResponse resp;
  resp.entries = r.U64();
  resp.size_bytes = r.U64();
  resp.shards = r.U32();
  resp.batches_served = r.U64();
  resp.queries_served = r.U64();
  resp.tokens_received = r.U64();
  resp.nodes_deduped = r.U64();
  resp.mapped_bytes = r.U64();
  resp.heap_bytes = r.U64();
  resp.snapshot_format = r.U8();
  if (!r.AtEnd()) return Malformed("stats response");
  return resp;
}

Bytes ErrorResponse::Encode() const {
  Bytes out;
  AppendUint32(out, static_cast<uint32_t>(message.size()));
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

Result<ErrorResponse> ErrorResponse::Decode(const Bytes& payload) {
  Reader r(payload);
  const uint32_t len = r.U32();
  if (!r.ok() || len != r.remaining()) return Malformed("error message");
  Bytes raw = r.Blob(len);
  ErrorResponse resp;
  resp.message.assign(raw.begin(), raw.end());
  return resp;
}

}  // namespace rsse::server
