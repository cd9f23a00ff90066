#ifndef RSSE_RSSE_PARTY_H_
#define RSSE_RSSE_PARTY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "data/dataset.h"
#include "dprf/ggm_dprf.h"
#include "sse/keyword_keys.h"

namespace rsse {

/// The two-party protocol boundary of the paper's constructions, made
/// explicit: the data owner runs a `TrapdoorGenerator` (Trpdr), the server
/// runs a `SearchBackend` (Search). `RangeScheme::Query` composes the two;
/// substituting a `server::RemoteBackend` for the `LocalBackend` over the
/// scheme's stores runs the identical protocol against a standalone
/// `rsse_serverd`.

/// Server-side store slots. Single-index schemes keep everything at the
/// primary slot; Logarithmic-SRC-i hosts I1 at the primary slot and I2 at
/// the secondary one.
inline constexpr uint32_t kPrimaryStore = 0;
inline constexpr uint32_t kSecondaryStore = 1;

/// How a server must interpret a hosted index blob and the tokens probing
/// it (`StoreSetup::kind`, mirrored on the wire as a raw byte).
enum class StoreKind : uint8_t {
  /// Π_bas encrypted dictionary (a `shard::ShardedEmm` blob): resolves GGM
  /// subtree tokens and standard keyword tokens.
  kEmm = 0,
  /// The PB baseline's Bloom-filter tree (`pb::FilterTreeIndex` blob):
  /// resolves opaque trapdoor tokens by tree descent.
  kFilterTree = 1,
};

/// One round's worth of trapdoors, as they leave the owner. Exactly one
/// token family is populated per scheme: GGM subtree tokens for the
/// Constant schemes' BRC/URC covers, keyword tokens for every standard-SSE
/// construction (Quadratic, Logarithmic, SRC, SRC-i, Naive), opaque
/// trapdoor blobs for the PB baseline's filter tree.
struct TokenSet {
  /// Which hosted store this round probes (SRC-i round 2 -> I2).
  uint32_t store = kPrimaryStore;

  /// Delegated GGM covering nodes (the DPRF tokens of Section 5).
  std::vector<GgmDprf::Token> ggm;

  /// Standard SSE tokens: the per-keyword (K1, K2) pair.
  std::vector<sse::KeywordKeys> keyword;

  /// Scheme-opaque trapdoors (PB's keyed dyadic-range trapdoors).
  std::vector<Bytes> opaque;

  bool empty() const {
    return ggm.empty() && keyword.empty() && opaque.empty();
  }

  /// Token count / byte size as the query-cost metrics of Fig. 8a count
  /// them (GGM: seed + level byte; keyword: both keys; opaque: the blob).
  size_t TokenCount() const;
  size_t TokenBytes() const;
};

/// Outcome of one server-side resolution round. Payloads are returned in
/// server order, decrypted: for a protocol's final round they are id
/// payloads (`sse::DecodeIdPayload`); SRC-i's first round returns the
/// 24-byte (value, position-range) documents of I1 for the owner to refine.
struct ResolvedIds {
  std::vector<Bytes> payloads;
  /// Candidate decryptions a pre-decryption gate skipped server-side.
  size_t skipped_decrypts = 0;
};

/// Server half: resolves one TokenSet against the hosted store(s).
/// Implementations: `LocalBackend` (a scheme's stores in process, the
/// paper's simulated server) and `server::RemoteBackend` (a real
/// `rsse_serverd` over the wire protocol); both sides run the one
/// resolver of local_backend.h.
class SearchBackend {
 public:
  virtual ~SearchBackend() = default;

  virtual Result<ResolvedIds> Resolve(const TokenSet& tokens) = 0;
};

/// Owner half: turns a clipped, non-empty range into per-round token sets.
/// Single-round schemes implement `Trapdoor` alone; SRC-i overrides
/// `ContinueTrapdoor` to derive round 2 from round 1's resolved documents.
class TrapdoorGenerator {
 public:
  virtual ~TrapdoorGenerator() = default;

  /// Round-1 token set for `r` (already clipped to the domain).
  virtual Result<TokenSet> Trapdoor(const Range& r) = 0;

  /// Next-round token set after `completed_rounds` rounds, the latest of
  /// which resolved to `prev`. nullopt ends the protocol (the default:
  /// every scheme but SRC-i is single-round).
  virtual Result<std::optional<TokenSet>> ContinueTrapdoor(
      const Range& r, int completed_rounds, const ResolvedIds& prev);
};

/// One serialized server-side store, as shipped to `rsse_serverd` in a
/// SetupStore frame: the index blob plus (optionally) the Bloom
/// pre-decryption gate built over its real-entry labels.
struct StoreSetup {
  uint32_t store = kPrimaryStore;
  StoreKind kind = StoreKind::kEmm;
  Bytes index_blob;
  /// Serialized `BloomLabelGate`; empty = no gate.
  Bytes gate_blob;
};

/// Everything a standalone server needs to host a scheme: the scheme's
/// stores in slot order. Produced by `RangeScheme::ExportServerSetup`.
struct ServerSetup {
  std::vector<StoreSetup> stores;
};

}  // namespace rsse

#endif  // RSSE_RSSE_PARTY_H_
