#ifndef RSSE_SERVEBENCH_STAGE_TRACE_H_
#define RSSE_SERVEBENCH_STAGE_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "dprf/ggm_dprf.h"
#include "rsse/bloom_gate.h"
#include "rsse/party.h"
#include "shard/sharded_emm.h"
#include "sse/keyword_keys.h"

namespace rsse::servebench {

/// One timed span of a traced request. Times are nanoseconds since the
/// start of the run; `parent` is the id of the enclosing span (0 = none).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t lane = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  /// Server busy time reported in SearchDone: under load on server.resolve
  /// spans, re-sent to the idle daemon on replay spans; -1 elsewhere.
  double busy_us = -1.0;
};

/// Writes `spans` as Chrome trace-event JSON (loadable in Perfetto or
/// chrome://tracing): one complete ("X") event per span, with the request
/// id, parent span and server busy time as arguments.
Status WriteChromeTrace(const std::string& path,
                        const std::vector<Span>& spans);

/// One traced query as the daemon served it: the token set of each round
/// and the payloads that came back (GGM rounds return ids, re-encoded as
/// id payloads exactly as RemoteBackend does), plus SearchDone's busy time.
struct RecordedQuery {
  uint64_t request = 0;
  std::vector<TokenSet> rounds;
  std::vector<std::vector<Bytes>> payloads;
  uint64_t busy_ns = 0;
  /// The same rounds re-sent to the idle daemon just before the replay:
  /// their summed busy time, and that of one empty round per round.
  uint64_t idle_busy_ns = 0;
  uint64_t staging_ns = 0;
};

/// Stage totals over the replayed queries. Times are nanoseconds, already
/// net of the clock-read overhead of each timed interval.
struct StageTotals {
  size_t queries = 0;
  /// The daemon's busy time for the replayed queries: under load, and
  /// re-sent to the idle daemon.
  uint64_t busy_ns = 0;
  uint64_t idle_busy_ns = 0;
  double expand_ns = 0;
  double kdf_ns = 0;
  double search_ns = 0;
  /// The daemon's emission: hits decoded to ids (GGM rounds) and framed.
  double encode_ns = 0;
  /// The daemon's fixed cost per round (store lock, stream set-up, staging
  /// a frame), measured as the busy time of empty rounds.
  double staging_ns = 0;
  uint64_t keywords = 0;
  uint64_t empty_keywords = 0;
  sse::SearchStats search;
  /// Timed-find pass: ShardedEmm::Find calls and their summed time.
  uint64_t finds = 0;
  double find_ns = 0;
  /// Crypto sidecar pass over the same keys.
  double prf_setup_ns = 0;
  double label_chunk_ns = 0;
  uint64_t label_chunks = 0;
  double decrypt_ns = 0;
  uint64_t decrypted_entries = 0;
};

/// Replays the server side of recorded queries in process, stage by
/// stage, through the layers' public functions: `GgmDprf::ExpandInto`,
/// `sse::KeysFromSharedSecretInto` and `sse::SearchEntries` over the same
/// shipped store blobs (loaded with `LoadServableIndex`) and Bloom gates
/// the daemon hosts, then the wire encoding of the result frames. The
/// query's measured staging time is the last stage. A replay whose payloads
/// are not byte-identical to `ShardedEmm::Search` and to what the daemon
/// returned is an error.
class StageReplay {
 public:
  static Result<StageReplay> Open(const ServerSetup& setup);

  /// Replays `query`, adding its stage times and counts to `totals` and
  /// one span per stage to `spans`, laid end to end from `start_ns` on
  /// lane 0 (the connections use lanes 1 and up).
  Status Replay(const RecordedQuery& query, StageTotals& totals,
                std::vector<Span>& spans, uint64_t start_ns,
                uint64_t& next_span_id);

 private:
  struct Store {
    shard::ShardedEmm emm;
    std::unique_ptr<BloomLabelGate> gate;
  };

  StageReplay() = default;

  /// Searches one keyword three ways (timed search, timed finds, crypto
  /// sidecar), appending the timed search's payloads to `out`.
  Status SearchKeyword(const Store& store, const sse::KeywordKeys& keys,
                       StageTotals& totals, std::vector<Bytes>& out);

  std::map<uint32_t, Store> stores_;
  std::vector<Label> leaves_;
  sse::KeywordKeys leaf_keys_;
  double clock_ns_ = 0;
};

}  // namespace rsse::servebench

#endif  // RSSE_SERVEBENCH_STAGE_TRACE_H_
