#include "stage_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "crypto/aes.h"
#include "crypto/hmac_prf.h"
#include "rsse/local_backend.h"
#include "server/server.h"
#include "server/wire.h"
#include "sse/emm_codec.h"

namespace rsse::servebench {

namespace {

using Clock = std::chrono::steady_clock;

double Nanos(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Median cost of one steady_clock read, subtracted from every timed
/// interval so that fine-grained stage times are not inflated by the timer.
double ClockReadNanos() {
  std::vector<double> samples(2001);
  for (double& s : samples) {
    const Clock::time_point a = Clock::now();
    const Clock::time_point b = Clock::now();
    s = Nanos(a, b);
  }
  std::nth_element(samples.begin(), samples.begin() + 1000, samples.end());
  return samples[1000];
}

bool SameMultiset(const std::vector<Bytes>& a, const std::vector<Bytes>& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<Bytes, long, BytesHash> count;
  for (const Bytes& x : a) ++count[x];
  for (const Bytes& x : b) {
    if (--count[x] < 0) return false;
  }
  return true;
}

/// The daemon's emission of one round's results: GGM hits decoded to ids,
/// then result frames chunked at the server's default sizes, then the
/// terminating SearchDone. Consumes `payloads`.
bool EncodeResultFrames(bool ggm, std::vector<Bytes>& payloads) {
  const server::ServerOptions defaults;
  Bytes frame;
  if (ggm) {
    std::vector<uint64_t> ids;
    ids.reserve(payloads.size());
    for (const Bytes& p : payloads) {
      if (auto id = sse::DecodeIdPayload(p); id.has_value()) ids.push_back(*id);
    }
    const size_t cap = defaults.max_ids_per_result_frame;
    for (size_t i = 0; i == 0 || i < ids.size(); i += cap) {
      server::SearchResult chunk;
      const auto first = ids.begin() + static_cast<long>(i);
      chunk.ids.assign(first, first + static_cast<long>(
                                          std::min(cap, ids.size() - i)));
      frame.clear();
      if (!server::EncodeFrame(server::FrameType::kSearchResult,
                               chunk.Encode(), frame)) {
        return false;
      }
    }
  } else {
    const size_t cap = defaults.max_payloads_per_result_frame;
    for (size_t i = 0; i == 0 || i < payloads.size(); i += cap) {
      server::SearchPayloadResult chunk;
      const auto first = payloads.begin() + static_cast<long>(i);
      chunk.payloads.assign(
          std::make_move_iterator(first),
          std::make_move_iterator(
              first + static_cast<long>(std::min(cap, payloads.size() - i))));
      frame.clear();
      if (!server::EncodeFrame(server::FrameType::kSearchPayload,
                               chunk.Encode(), frame)) {
        return false;
      }
    }
  }
  frame.clear();
  return server::EncodeFrame(server::FrameType::kSearchDone,
                             server::SearchDone{}.Encode(), frame);
}

}  // namespace

Status WriteChromeTrace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write trace " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"rsse\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":"
                 "%llu,\"span\":%llu,\"parent\":%llu",
                 s.name, s.lane, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    if (s.busy_us >= 0) std::fprintf(f, ",\"busy_us\":%.3f", s.busy_us);
    std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

Result<StageReplay> StageReplay::Open(const ServerSetup& setup) {
  StageReplay replay;
  for (const StoreSetup& s : setup.stores) {
    if (s.kind != StoreKind::kEmm) {
      return Status::Unimplemented("replay covers encrypted dictionaries");
    }
    Result<shard::ShardedEmm> emm = LoadServableIndex(s.index_blob);
    if (!emm.ok()) return emm.status();
    Store store;
    store.emm = std::move(emm).value();
    if (!s.gate_blob.empty()) {
      Result<BloomLabelGate> gate = BloomLabelGate::Deserialize(s.gate_blob);
      if (!gate.ok()) return gate.status();
      store.gate = std::make_unique<BloomLabelGate>(std::move(gate).value());
    }
    replay.stores_.emplace(s.store, std::move(store));
  }
  replay.clock_ns_ = ClockReadNanos();
  return replay;
}

Status StageReplay::SearchKeyword(const Store& store,
                                  const sse::KeywordKeys& keys,
                                  StageTotals& totals,
                                  std::vector<Bytes>& out) {
  const sse::LabelGate* gate = store.gate.get();
  const size_t before = out.size();

  // 1. The search as the daemon runs it.
  sse::SearchStats stats;
  auto find = [&store](const Label& label) { return store.emm.Find(label); };
  Clock::time_point t0 = Clock::now();
  sse::SearchEntries(keys, find, out, gate, &stats);
  Clock::time_point t1 = Clock::now();
  totals.search_ns += Nanos(t0, t1) - clock_ns_;
  totals.search.Add(stats);
  ++totals.keywords;
  if (stats.probes <= 1) ++totals.empty_keywords;

  const std::vector<Bytes> reference = store.emm.Search(keys, gate, nullptr);
  if (!std::equal(out.begin() + static_cast<long>(before), out.end(),
                  reference.begin(), reference.end())) {
    return Status::Internal("replayed payloads differ from ShardedEmm::Search");
  }

  // 2. The same search with every dictionary probe timed.
  std::vector<Bytes> scratch;
  auto timed_find = [&](const Label& label) {
    const Clock::time_point a = Clock::now();
    auto hit = store.emm.Find(label);
    const Clock::time_point b = Clock::now();
    totals.find_ns += Nanos(a, b) - clock_ns_;
    ++totals.finds;
    return hit;
  };
  sse::SearchEntries(keys, timed_find, scratch, gate, nullptr);

  // 3. Crypto sidecar: PRF key setup, fused 8-label chunks and one batch
  // decryption of the keyword's gathered hits, each timed on its own.
  t0 = Clock::now();
  const crypto::Prf prf(keys.label_key);
  t1 = Clock::now();
  totals.prf_setup_ns += Nanos(t0, t1) - clock_ns_;
  if (!prf.ok()) return Status::Internal("label PRF setup failed");
  constexpr size_t kChunk = 8;
  Label labels[kChunk];
  Bytes cts;
  std::vector<uint32_t> ct_lens;
  for (uint64_t base = 0;; base += kChunk) {
    t0 = Clock::now();
    const bool ok = prf.EvalCountersInto(
        base, kChunk, ByteSpan(labels[0].data(), sizeof(labels)), kLabelBytes);
    t1 = Clock::now();
    totals.label_chunk_ns += Nanos(t0, t1) - clock_ns_;
    ++totals.label_chunks;
    if (!ok) return Status::Internal("label derivation failed");
    bool miss = false;
    for (const Label& label : labels) {
      const auto ct = store.emm.Find(label);
      if (!ct.has_value()) {
        miss = true;
        break;
      }
      if (gate != nullptr && !gate->MayContainReal(label)) continue;
      cts.insert(cts.end(), ct->begin(), ct->end());
      ct_lens.push_back(static_cast<uint32_t>(ct->size()));
    }
    if (miss) break;
  }
  if (!ct_lens.empty()) {
    Bytes plains(cts.size() - ct_lens.size() * crypto::Aes128Cbc::kBlockBytes);
    std::vector<uint32_t> plain_lens(ct_lens.size());
    t0 = Clock::now();
    const Status s = crypto::Aes128Cbc::DecryptManyInto(
        keys.value_key, cts, ct_lens, plains, plain_lens);
    t1 = Clock::now();
    if (!s.ok()) return s;
    totals.decrypt_ns += Nanos(t0, t1) - clock_ns_;
    totals.decrypted_entries += ct_lens.size();
  }
  return Status::Ok();
}

Status StageReplay::Replay(const RecordedQuery& query, StageTotals& totals,
                           std::vector<Span>& spans, uint64_t start_ns,
                           uint64_t& next_span_id) {
  const double expand_before = totals.expand_ns;
  const double kdf_before = totals.kdf_ns;
  const double search_before = totals.search_ns;
  const double encode_before = totals.encode_ns;
  for (size_t r = 0; r < query.rounds.size(); ++r) {
    const TokenSet& tokens = query.rounds[r];
    auto it = stores_.find(tokens.store);
    if (it == stores_.end()) {
      return Status::InvalidArgument("replay: no store at the token's slot");
    }
    const Store& store = it->second;
    std::vector<Bytes> payloads;
    for (const GgmDprf::Token& token : tokens.ggm) {
      const Clock::time_point t0 = Clock::now();
      const bool expanded = GgmDprf::ExpandInto(token, leaves_);
      const Clock::time_point t1 = Clock::now();
      totals.expand_ns += Nanos(t0, t1) - clock_ns_;
      if (!expanded) return Status::InvalidArgument("replay: bad GGM token");
      for (const Label& leaf : leaves_) {
        const Clock::time_point k0 = Clock::now();
        sse::KeysFromSharedSecretInto(ConstByteSpan(leaf.data(), leaf.size()),
                                      leaf_keys_);
        const Clock::time_point k1 = Clock::now();
        totals.kdf_ns += Nanos(k0, k1) - clock_ns_;
        RSSE_RETURN_IF_ERROR(
            SearchKeyword(store, leaf_keys_, totals, payloads));
      }
    }
    for (const sse::KeywordKeys& keys : tokens.keyword) {
      RSSE_RETURN_IF_ERROR(SearchKeyword(store, keys, totals, payloads));
    }
    if (r >= query.payloads.size() ||
        !SameMultiset(payloads, query.payloads[r])) {
      return Status::Internal(
          "replayed payloads differ from what the daemon returned");
    }
    const Clock::time_point e0 = Clock::now();
    const bool encoded = EncodeResultFrames(!tokens.ggm.empty(), payloads);
    const Clock::time_point e1 = Clock::now();
    totals.encode_ns += Nanos(e0, e1) - clock_ns_;
    if (!encoded) return Status::Internal("replay: result frame too large");
  }
  ++totals.queries;
  totals.busy_ns += query.busy_ns;
  totals.idle_busy_ns += query.idle_busy_ns;
  totals.staging_ns += static_cast<double>(query.staging_ns);

  const uint64_t parent = next_span_id++;
  const double stages[5] = {
      totals.expand_ns - expand_before, totals.kdf_ns - kdf_before,
      totals.search_ns - search_before, totals.encode_ns - encode_before,
      static_cast<double>(query.staging_ns)};
  const char* names[5] = {"replay.expand", "replay.kdf", "replay.search",
                          "replay.encode", "replay.staging"};
  uint64_t at = start_ns;
  for (int i = 0; i < 5; ++i) {
    const uint64_t dur = static_cast<uint64_t>(std::max(stages[i], 0.0));
    spans.push_back(Span{names[i], next_span_id++, parent, query.request, 0,
                         at, dur, -1.0});
    at += dur;
  }
  spans.push_back(Span{"replay", parent, 0, query.request, 0, start_ns,
                       at - start_ns,
                       static_cast<double>(query.idle_busy_ns) / 1e3});
  return Status::Ok();
}

}  // namespace rsse::servebench
