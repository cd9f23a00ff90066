#ifndef RSSE_SERVER_CLIENT_H_
#define RSSE_SERVER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "dprf/ggm_dprf.h"
#include "server/backoff.h"
#include "server/wire.h"

namespace rsse::server {

/// Tunables for the client's failure handling. The defaults retry
/// idempotent requests (SetupStore/Search*/Stats) over transient transport
/// failures — connection reset, peer close, recv timeout, a draining
/// server — reconnecting with jittered exponential backoff between
/// attempts. Update is never retried: a batch whose response was lost may
/// have been applied, and replaying it would double-insert.
struct ClientOptions {
  /// Bounds each response wait (0 disables the socket timeout).
  int recv_timeout_seconds = 30;
  /// Wall-clock budget for one logical request across every retry and
  /// backoff sleep (0 = no deadline, only `backoff.max_retries` bounds).
  int64_t request_deadline_ms = 0;
  /// Retry idempotent requests over kUnavailable failures.
  bool retry_idempotent = true;
  BackoffPolicy backoff;
  /// Seed for the jitter PRNG (deterministic per client).
  uint64_t backoff_seed = 1;
};

/// Blocking client for `rsse_serverd`: frames requests onto one TCP
/// connection and parses the streamed responses. One instance per
/// connection; not thread-safe.
///
/// Transient transport failures surface as StatusCode::kUnavailable;
/// everything else (protocol breaches, server-reported errors) keeps its
/// non-retryable code.
class EmmClient {
 public:
  EmmClient() = default;
  /// `clock` (optional) overrides wall-clock reads and backoff sleeps —
  /// tests inject a fake to run retry schedules instantly.
  explicit EmmClient(const ClientOptions& options, Clock* clock = nullptr);
  ~EmmClient();

  EmmClient(const EmmClient&) = delete;
  EmmClient& operator=(const EmmClient&) = delete;

  /// Connects to `host:port` (numeric IPv4). `recv_timeout_seconds` bounds
  /// each response wait (0 disables the timeout). The endpoint is recorded
  /// even when the attempt fails, so a later idempotent request can
  /// reconnect and retry.
  Status Connect(const std::string& host, uint16_t port,
                 int recv_timeout_seconds);
  /// Connects using the options' recv timeout.
  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Ships one store slot of a scheme's ServerSetup (index blob, store
  /// kind, optional Bloom gate). See `InstallServerSetup` in
  /// remote_backend.h for the whole-scheme helper.
  Result<SetupResponse> SetupStore(const SetupStoreRequest& req);

  /// One range query of a batch: caller-chosen id plus the delegated
  /// covering tokens (`ConstantScheme::Delegate` output).
  struct BatchQuery {
    uint32_t query_id = 0;
    std::vector<GgmDprf::Token> tokens;
  };

  /// Result of one batched round trip: ids per query id plus the server's
  /// dedupe/expansion report.
  struct BatchOutcome {
    std::map<uint32_t, std::vector<uint64_t>> ids;
    SearchDone done;
  };

  /// Sends every query in one SearchBatch frame and reassembles the
  /// streamed per-query result chunks until the terminating SearchDone.
  Result<BatchOutcome> SearchBatch(const std::vector<BatchQuery>& queries);

  /// Result of one keyword-token batch: decrypted payloads per query id
  /// (reassembled from interleaved SearchPayload chunks) plus the server's
  /// report.
  struct KeywordOutcome {
    std::map<uint32_t, std::vector<Bytes>> payloads;
    SearchDone done;
  };

  /// Sends one SearchKeyword batch (keyword tokens / opaque trapdoors
  /// against one store slot) and collects the streamed payload chunks
  /// until SearchDone.
  Result<KeywordOutcome> SearchKeyword(const SearchKeywordRequest& req);

  /// Inserts pre-encrypted (label, ciphertext) entries. Never retried
  /// (not idempotent); a kUnavailable failure means the batch may or may
  /// not have been applied and the caller must reconcile via Stats.
  Result<UpdateResponse> Update(
      const std::vector<std::pair<Label, Bytes>>& entries);

  Result<StatsResponse> Stats();

  /// Bytes buffered but not yet parsed (diagnostics/tests).
  size_t BufferedBytes() const { return in_.size() - in_offset_; }
  /// High-water mark of the receive buffer over the connection's life —
  /// the number the RecvFrame compaction keeps bounded.
  size_t PeakRecvBufferBytes() const { return peak_recv_buffer_bytes_; }
  /// Reconnections performed by the retry machinery (diagnostics/tests).
  size_t ReconnectCount() const { return reconnect_count_; }

 private:
  /// One dial attempt against the recorded endpoint.
  Status DialLocked();
  /// Sends one frame: the header, then `payload` straight from the
  /// caller's buffer.
  Status SendFrame(FrameType type, const Bytes& payload);
  Status WriteAll(const uint8_t* data, size_t len);
  /// Blocks until one full frame arrives (or the peer closes/times out).
  Result<Frame> RecvFrame();
  /// Runs `attempt` with reconnect + jittered backoff on kUnavailable
  /// (when retries are enabled); anything else passes straight through.
  template <typename T>
  Result<T> RetryIdempotent(const std::function<Result<T>()>& attempt);

  ClientOptions options_;
  Clock* clock_ = Clock::Real();
  int fd_ = -1;
  /// Recorded by Connect for reconnects; empty until the first Connect.
  std::string host_;
  uint16_t port_ = 0;
  bool endpoint_known_ = false;
  Bytes in_;
  size_t in_offset_ = 0;
  size_t peak_recv_buffer_bytes_ = 0;
  size_t reconnect_count_ = 0;
};

}  // namespace rsse::server

#endif  // RSSE_SERVER_CLIENT_H_
