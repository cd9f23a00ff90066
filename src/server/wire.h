#ifndef RSSE_SERVER_WIRE_H_
#define RSSE_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace rsse::server {

/// Length-prefixed binary wire protocol between `rsse_client` and
/// `rsse_serverd`. Every frame is
///
///   [u32 frame_len][u8 version][u8 type][payload ...]
///
/// with all integers big-endian and `frame_len` counting the bytes after
/// the length field (so version + type + payload, at least 2). Frames are
/// self-delimiting, so a stream parser needs no lookahead beyond the
/// 4-byte prefix; `frame_len` is capped to keep a corrupt or hostile
/// prefix from driving allocation.
///
/// Version 2 extends the protocol from the Constant schemes to the whole
/// scheme family: SetupStore hosts multiple stores per server (SRC-i's
/// I1/I2, PB's filter tree) with optional Bloom pre-decryption gates,
/// SearchKeyword resolves keyword/trapdoor token batches, SearchPayload
/// streams decrypted payloads back, and result frames are chunked —
/// capped ids/payloads per frame, interleaved across the batch's query
/// ids, reassembled by the client until SearchDone.
inline constexpr uint8_t kWireVersion = 2;
inline constexpr uint32_t kMaxFrameBytes = uint32_t{1} << 30;

/// Per-part byte cap for keyword/trapdoor tokens (a keyword token part is
/// a λ-byte key; PB trapdoors are λ bytes too). The decoder rejects
/// anything larger, bounding what one hostile token can allocate.
inline constexpr size_t kMaxKeywordTokenPartBytes = 4096;

enum class FrameType : uint8_t {
  // Type 1 is retired (the legacy single-store Setup frame; owners ship
  // stores with kSetupStoreReq). The framer rejects it as unknown.
  /// Server -> client: ack of a kSetupStoreReq.
  kSetupResp = 2,
  /// Client -> server: many range queries, each many GGM tokens, in one
  /// round trip.
  kSearchBatchReq = 3,
  /// Server -> client: a chunk of ids of one query of the batch (chunked
  /// and interleaved across query ids; reassemble until SearchDone).
  kSearchResult = 4,
  /// Server -> client: end of batch + dedupe/expansion statistics.
  kSearchDone = 5,
  /// Client -> server: insert pre-encrypted (label, ciphertext) entries.
  kUpdateReq = 6,
  kUpdateResp = 7,
  kStatsReq = 8,
  kStatsResp = 9,
  /// Server -> client: request-level failure (bad frame, no index, ...).
  kError = 10,
  /// Client -> server: host one store slot (index blob + optional Bloom
  /// gate) of a scheme's ServerSetup. Answered with kSetupResp.
  kSetupStoreReq = 11,
  /// Client -> server: a batch of keyword/trapdoor token queries against
  /// one store slot (the TDAG schemes' SSE tokens, PB's trapdoors).
  kSearchKeywordReq = 12,
  /// Server -> client: a chunk of decrypted payloads of one query of a
  /// keyword batch (chunked + interleaved like kSearchResult).
  kSearchPayload = 13,
  /// Server -> client: the server is draining (graceful shutdown) and
  /// rejected this request. Payload is an ErrorResponse; unlike kError the
  /// request was never started, so an idempotent client may safely retry
  /// it against the restarted server.
  kErrorDraining = 14,
};

/// One decoded frame: type plus raw payload (still to be parsed by the
/// typed Decode functions below).
struct Frame {
  FrameType type = FrameType::kError;
  Bytes payload;
};

/// Appends one encoded frame to `out`. Returns false (appending nothing)
/// when `payload` exceeds kMaxFrameBytes - 2 — the send-side mirror of the
/// decoder's cap, so an oversized payload fails loudly instead of wrapping
/// the length prefix and corrupting the stream.
[[nodiscard]] bool EncodeFrame(FrameType type, ConstByteSpan payload,
                               Bytes& out);

/// Outcome of pulling one frame off a byte stream.
enum class FrameParse {
  kFrame,     // one frame decoded, `offset` advanced past it
  kNeedMore,  // the buffer holds only a frame prefix; read more bytes
  kMalformed, // unrecoverable: bad version/type/length — drop the peer
};

/// Attempts to decode one frame from `buf[offset...]`. On kFrame, fills
/// `frame` and advances `offset`; on kMalformed, `error` (when non-null)
/// receives a diagnostic.
FrameParse DecodeFrame(const Bytes& buf, size_t& offset, Frame& frame,
                       std::string* error);

// ---------------------------------------------------------------------------
// Typed payloads. Each struct encodes to / decodes from a frame payload;
// Decode returns INVALID_ARGUMENT on truncated, oversized or malformed
// input (never crashes, never over-reads).
// ---------------------------------------------------------------------------

/// A delegated GGM covering node: subtree level plus λ-byte seed. The node
/// position is deliberately absent, as in `GgmDprf::Token`.
struct WireToken {
  uint8_t level = 0;
  Label seed{};

  friend bool operator==(const WireToken&, const WireToken&) = default;
};

/// One range query of a batch: a client-chosen id echoed on results plus
/// the BRC/URC cover tokens of the range.
struct WireQuery {
  uint32_t query_id = 0;
  std::vector<WireToken> tokens;
};

struct SetupResponse {
  uint32_t shards = 0;
  uint64_t entries = 0;

  Bytes Encode() const;
  static Result<SetupResponse> Decode(const Bytes& payload);
};

struct SearchBatchRequest {
  std::vector<WireQuery> queries;

  Bytes Encode() const;
  static Result<SearchBatchRequest> Decode(const Bytes& payload);
};

struct SearchResult {
  uint32_t query_id = 0;
  std::vector<uint64_t> ids;

  Bytes Encode() const;
  static Result<SearchResult> Decode(const Bytes& payload);
};

struct SearchDone {
  uint32_t query_count = 0;
  /// Tokens received across the batch vs distinct GGM subtrees actually
  /// expanded — the batching win the client can observe.
  uint64_t tokens_received = 0;
  uint64_t unique_nodes_expanded = 0;
  uint64_t leaves_searched = 0;
  uint64_t search_nanos = 0;
  /// Candidate decryptions the store's Bloom gate skipped (keyword
  /// batches against gated SRC/SRC-i stores; new in wire v2).
  uint64_t skipped_decrypts = 0;

  Bytes Encode() const;
  static Result<SearchDone> Decode(const Bytes& payload);
};

/// Hosts one store slot of a scheme's ServerSetup: the serialized index
/// (`kind` selects the blob format and the tokens it resolves) plus an
/// optional serialized BloomLabelGate consulted before candidate
/// decryptions.
struct SetupStoreRequest {
  uint32_t store_id = 0;
  /// Raw `rsse::StoreKind`: 0 = encrypted dictionary, 1 = PB filter tree.
  uint8_t kind = 0;
  Bytes index_blob;
  /// Empty = no gate.
  Bytes gate_blob;

  Bytes Encode() const;
  static Result<SetupStoreRequest> Decode(const Bytes& payload);
};

/// One keyword/trapdoor token as shipped to the server. kind 0 is a
/// standard SSE token (`a` = label key K1, `b` = value key K2); kind 1 is
/// a scheme-opaque trapdoor in `a` (`b` empty) — PB's filter-tree probes.
struct WireKeywordToken {
  uint8_t kind = 0;
  Bytes a;
  Bytes b;

  friend bool operator==(const WireKeywordToken&,
                         const WireKeywordToken&) = default;
};

/// A batch of keyword-token queries against one hosted store slot.
struct SearchKeywordRequest {
  struct Query {
    uint32_t query_id = 0;
    std::vector<WireKeywordToken> tokens;
  };

  uint32_t store_id = 0;
  std::vector<Query> queries;

  Bytes Encode() const;
  static Result<SearchKeywordRequest> Decode(const Bytes& payload);
};

/// A chunk of decrypted payloads for one query of a keyword batch.
struct SearchPayloadResult {
  uint32_t query_id = 0;
  std::vector<Bytes> payloads;

  Bytes Encode() const;
  static Result<SearchPayloadResult> Decode(const Bytes& payload);
};

struct UpdateRequest {
  std::vector<std::pair<Label, Bytes>> entries;

  Bytes Encode() const;
  static Result<UpdateRequest> Decode(const Bytes& payload);
};

struct UpdateResponse {
  uint64_t entries = 0;

  Bytes Encode() const;
  static Result<UpdateResponse> Decode(const Bytes& payload);
};

struct StatsResponse {
  uint64_t entries = 0;
  uint64_t size_bytes = 0;
  uint32_t shards = 0;
  uint64_t batches_served = 0;
  uint64_t queries_served = 0;
  uint64_t tokens_received = 0;
  uint64_t nodes_deduped = 0;
  /// Primary-store memory provenance: bytes served straight off the
  /// mapped snapshot vs bytes on heap (shards touched by updates or WAL
  /// replay, a store shipped since boot, or every store without a data
  /// dir).
  uint64_t mapped_bytes = 0;
  uint64_t heap_bytes = 0;
  /// Snapshot container generation backing the primary store: 2 once it
  /// has a snapshot, 0 when nothing is persisted.
  uint8_t snapshot_format = 0;

  Bytes Encode() const;
  static Result<StatsResponse> Decode(const Bytes& payload);
};

struct ErrorResponse {
  std::string message;

  Bytes Encode() const;
  static Result<ErrorResponse> Decode(const Bytes& payload);
};

}  // namespace rsse::server

#endif  // RSSE_SERVER_WIRE_H_
