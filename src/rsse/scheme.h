#ifndef RSSE_RSSE_SCHEME_H_
#define RSSE_RSSE_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "rsse/local_backend.h"
#include "rsse/party.h"

namespace rsse {

/// The RSSE constructions of the paper (Table 1).
enum class SchemeId {
  kQuadratic,
  kConstantBrc,
  kConstantUrc,
  kLogarithmicBrc,
  kLogarithmicUrc,
  kLogarithmicSrc,
  kLogarithmicSrcI,
  /// The Li et al. (PVLDB'14) baseline, implemented in src/pb. Not produced
  /// by `MakeScheme` (module layering); use `pb::MakePbScheme`.
  kPb,
  /// Section 5's naive per-value strawman: O(R) query size; ablation only.
  kNaivePerValue,
};

/// Human-readable scheme name as used in the paper's figures.
const char* SchemeName(SchemeId id);

/// Outcome of one range-query protocol execution.
struct QueryResult {
  /// Tuple ids as delivered by the server. SRC-based schemes may include
  /// false positives; the owner removes them after decrypting the tuples
  /// (see `FilterIdsToRange`).
  std::vector<uint64_t> ids;

  /// Number of tokens sent to the server across all rounds (Fig. 8a
  /// counts these; BRC/URC send O(log R), SRC one, SRC-i two).
  size_t token_count = 0;

  /// Total bytes of token material sent (the query-size metric of Fig. 8a).
  size_t token_bytes = 0;

  /// Communication rounds (1, or 2 for Logarithmic-SRC-i).
  int rounds = 1;

  /// Owner-side trapdoor generation time (Fig. 8b) in nanoseconds.
  uint64_t trapdoor_nanos = 0;

  /// Server-side search time (Fig. 7) in nanoseconds.
  uint64_t search_nanos = 0;

  /// Candidate decryptions a pre-decryption gate skipped (padding dummies
  /// rejected by the Bloom gate of SRC/SRC-i; 0 when no gate is active).
  size_t skipped_decrypts = 0;
};

/// Uniform facade over all RSSE constructions, split along the paper's
/// two-party protocol boundary: the owner half is the scheme's
/// `TrapdoorGenerator` (trapdoor generation and, for SRC-i, the round-2
/// refinement), the server half is the list of stores `Build` produces
/// (`stores()`), which a `SearchBackend` resolves token sets against.
/// From that one list the base class derives both server halves: `Query`
/// runs trapdoor -> resolve -> owner post-filter against a `LocalBackend`
/// over it and reports per-party costs, and `ExportServerSetup()`
/// serializes it for a standalone `rsse_serverd`. `QueryVia` runs the
/// identical protocol over any other backend — in particular a
/// `server::RemoteBackend` speaking to that server. Concrete classes
/// expose additional scheme-specific surface (e.g. leakage accessors) for
/// tests.
class RangeScheme {
 public:
  virtual ~RangeScheme() = default;

  virtual SchemeId id() const = 0;

  /// Owner-side index construction over `dataset`. Must be called once
  /// before `Query`.
  virtual Status Build(const Dataset& dataset) = 0;

  /// Size of the outsourced encrypted index in bytes (Fig. 5a metric).
  virtual size_t IndexSizeBytes() const = 0;

  /// The owner half of the protocol (valid after `Build`).
  virtual TrapdoorGenerator& trapdoors() = 0;

  /// The server half: every store this scheme hosts, one per slot
  /// (valid after `Build`).
  virtual std::vector<StoreRef> stores() const = 0;

  /// Serialized server-side state for hosting this scheme on a standalone
  /// server: `stores()` in the SetupStore form (index blobs, pre-decryption
  /// gates). FAILED_PRECONDITION before `Build`.
  Result<ServerSetup> ExportServerSetup() const;

  /// Executes the query protocol for range `r` (clipped to the domain)
  /// against the in-process backend.
  Result<QueryResult> Query(const Range& r);

  /// Executes the query protocol against an arbitrary backend: rounds of
  /// owner trapdoor generation and server resolution, then the owner-side
  /// decode of the final round's payloads. `QueryResult` cost accounting
  /// is identical to `Query`; `search_nanos` covers the backend call (for
  /// a remote backend this includes the wire round trip).
  Result<QueryResult> QueryVia(SearchBackend& backend, const Range& r);

 protected:
  /// Set by every scheme's `Build`; `Query` clips against it.
  Domain domain_;
  bool built_ = false;
};

/// Owner-side post-filtering: after retrieving and decrypting the tuples
/// for `ids`, the owner keeps those whose attribute lies in `r`. Here the
/// plaintext `dataset` stands in for the decrypted tuples.
std::vector<uint64_t> FilterIdsToRange(const Dataset& dataset,
                                       const std::vector<uint64_t>& ids,
                                       const Range& r);

/// Clips `r` to the domain; returns false when the intersection is empty.
bool ClipRangeToDomain(const Domain& domain, Range& r);

}  // namespace rsse

#endif  // RSSE_RSSE_SCHEME_H_
