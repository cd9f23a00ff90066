// serve_bench: the serving benchmark of the encrypted range-search service.
//
// One run drives one named workload against a real child rsse_serverd over
// loopback. The owner (a RangeScheme) builds the index, ships it with
// ExportServerSetup + InstallServerSetup, and then every query runs the full
// two-party protocol through RangeScheme::QueryVia, from a fixed open-loop
// schedule on each connection. Every answer is checked.
//
//   serve_bench --workload=const_leaf --seed=1 [--seconds=20]
//               [--trace=<file>] [--work-dir=<dir>]
//   serve_bench --smoke=1 [--work-dir=<dir>]
//
// A run sets up, warms up, then runs four `light` blocks interleaved with
// two `loaded` blocks at fixed rates and a knee search for the highest rate
// whose p99 stays under the limit, and ends with a crash-restart of the
// daemon. It sets up again after each light block, on a second daemon, so
// that the five set-up times (their median is setup_s) sample the whole
// run. A traced run (--trace) records spans in its last light block,
// re-sends a sample of those queries to the idle daemon and replays their
// server side stage by stage in process, and writes the spans to <file> as
// Chrome trace JSON.
//
// Output: every metric with its unit, then one JSON object as the last line
// of stdout: {"correct", "attempted", "failed", "metrics"}, holding the
// end-to-end metrics of BENCHMARK.json, or with --trace its per-layer ones.
// Exit status 1 on a wrong answer, a lost acked update, a failed request or
// an invalid run; 2 on bad flags.

#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/hmac_prf.h"
#include "crypto/prg.h"
#include "data/dataset.h"
#include "rsse/constant.h"
#include "rsse/log_src_i.h"
#include "rsse/scheme.h"
#include "server/client.h"
#include "server/remote_backend.h"
#include "serverd_process.h"
#include "sse/encrypted_multimap.h"
#include "stage_trace.h"

namespace rsse::servebench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Nanos(Clock::duration d) {
  return std::chrono::duration<double, std::nano>(d).count();
}
Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Nearest-rank percentile; +inf entries (failed requests) sort last.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// ---------------------------------------------------------------------------
// Workloads. Rates are absolute and frozen, so that every commit is compared
// at identical offered load; BENCHMARK.json and README.md record why each
// workload exists and how the rates were calibrated.
// ---------------------------------------------------------------------------

enum class SchemeKind { kConstantBrc, kSrcI };

struct Workload {
  const char* name;
  SchemeKind scheme;
  uint64_t records;
  int domain_bits;
  /// Domain values per query range.
  uint64_t width;
  double light_qps;
  double loaded_qps;
  /// One of the four connections writes Update batches beside three
  /// readers, and the daemon keeps a durable, mmap-served data dir.
  bool writer;
};

constexpr Workload kWorkloads[] = {
    {"const_leaf", SchemeKind::kConstantBrc, 125000, 17, 256, 200, 480, false},
    {"srci_lists", SchemeKind::kSrcI, 20000, 16, 1024, 300, 900, false},
    {"const_narrow", SchemeKind::kConstantBrc, 125000, 17, 16, 2000, 5500,
     false},
    {"update_mix", SchemeKind::kConstantBrc, 125000, 17, 256, 200, 420, true},
};

/// p99 latency limit of every knee-search step. The generator's own wake-up
/// lateness must stay under a tenth of it for a run to be valid.
constexpr double kLimitMs = 25;
constexpr int kConnections = 4;
constexpr double kWriteBatchesPerSecond = 50;

/// The top of every domain is kept free of initial records: update_mix's
/// writer inserts there, so reads of the static region keep a fixed truth.
constexpr uint64_t kUpdateSliceValues = 256;
constexpr size_t kWriteBatchEntries = 64;
constexpr int kConstantShards = 4;
constexpr uint64_t kSrcIPadQuantum = 4;
constexpr double kSrcIGateFpRate = 0.01;
/// One search worker: on a host whose vCPUs share cores with other tenants,
/// parallel capacity swings far more from run to run than the speed of one
/// thread, and a single worker bounds the knee by the latter.
constexpr int kSearchWorkers = 1;
/// A set-up follows each light block. The host's speed changes every few
/// seconds, and set-ups spread over the run sample more of those changes
/// than back-to-back ones.
constexpr int kLightBlocks = 4;
/// Crash-restarts of a traced run; their median is reported.
constexpr int kRestarts = 5;
/// Knee-search steps per run, confirmations of failing steps included.
constexpr int kKneeSteps = 10;

// ---------------------------------------------------------------------------
// Flags.
// ---------------------------------------------------------------------------

constexpr char kUsage[] =
    "serve_bench: serving benchmark of rsse_serverd (one workload per run)\n"
    "  --workload=<name>   const_leaf | srci_lists | const_narrow | "
    "update_mix\n"
    "  --seed=<n>          input seed (records, query ranges, phases)\n"
    "  --seconds=<s>       measured time of the phases (default 20)\n"
    "  --trace=<file>      traced run: light phase + stage replay, Chrome "
    "trace JSON to <file>\n"
    "  --work-dir=<dir>    directory for durable data dirs (default .)\n"
    "  --smoke=1           every workload, ~2 s each, all correctness "
    "checks\n";

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool seed_set = false;
  double seconds = 20.0;
  std::string trace_path;
  std::string work_dir = ".";
  bool smoke = false;
};

[[noreturn]] void UsageExit(const std::string& error) {
  std::fprintf(stderr, "serve_bench: %s\n%s", error.c_str(), kUsage);
  std::exit(2);
}

uint64_t ParseUint(const std::string& key, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0' || errno == ERANGE) {
    UsageExit("--" + key + " needs a non-negative integer, got '" + v + "'");
  }
  return parsed;
}

double ParsePositive(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || !std::isfinite(parsed) || parsed <= 0) {
    UsageExit("--" + key + " needs a positive number, got '" + v + "'");
  }
  return parsed;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Options ParseFlags(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::printf("%s", kUsage);
      std::exit(0);
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      UsageExit("expected --key=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      o.workload = value;
    } else if (key == "seed") {
      o.seed = ParseUint(key, value);
      o.seed_set = true;
    } else if (key == "seconds") {
      o.seconds = ParsePositive(key, value);
    } else if (key == "trace") {
      o.trace_path = value;
    } else if (key == "work-dir") {
      o.work_dir = value;
    } else if (key == "smoke") {
      o.smoke = ParseUint(key, value) != 0;
    } else {
      UsageExit("unknown flag --" + key);
    }
  }
  if (o.smoke) {
    if (!o.workload.empty() || !o.trace_path.empty()) {
      UsageExit("--smoke=1 runs every workload; drop --workload/--trace");
    }
    return o;
  }
  if (FindWorkload(o.workload) == nullptr) {
    std::string valid;
    for (const Workload& w : kWorkloads) valid += std::string(" ") + w.name;
    UsageExit("unknown or missing --workload '" + o.workload +
              "'; valid:" + valid);
  }
  if (!o.seed_set) UsageExit("--seed is required");
  return o;
}

// ---------------------------------------------------------------------------
// Inputs: records, ground truth and query ranges, all from the seed.
// ---------------------------------------------------------------------------

struct Data {
  Dataset dataset;
  /// Initial records' values lie in [0, static_values).
  uint64_t static_values = 0;
  /// Records sorted by value: attr_sorted[i] is the value of id_sorted[i].
  std::vector<uint64_t> attr_sorted;
  std::vector<uint64_t> id_sorted;
  std::vector<uint64_t> attr_of_id;
};

Data MakeData(const Workload& w, uint64_t records, uint64_t seed) {
  Data d;
  const uint64_t domain = uint64_t{1} << w.domain_bits;
  d.static_values = domain - kUpdateSliceValues;
  Rng rng(seed);
  std::vector<Record> recs(records);
  d.attr_of_id.resize(records);
  for (uint64_t id = 0; id < records; ++id) {
    recs[id] = Record{id, rng.Uniform(0, d.static_values - 1)};
    d.attr_of_id[id] = recs[id].attr;
  }
  std::vector<Record> sorted = recs;
  std::sort(sorted.begin(), sorted.end(), [](const Record& a, const Record& b) {
    return a.attr != b.attr ? a.attr < b.attr : a.id < b.id;
  });
  for (const Record& r : sorted) {
    d.attr_sorted.push_back(r.attr);
    d.id_sorted.push_back(r.id);
  }
  d.dataset = Dataset(Domain{domain}, std::move(recs));
  return d;
}

Range RandomRange(Rng& rng, const Data& d, uint64_t width) {
  const uint64_t lo = rng.Uniform(0, d.static_values - width);
  return Range{lo, lo + width - 1};
}

/// Checks `ids` against the truth for `r` without sorting: expected ids are
/// marked in `marks` (one byte per record, all zero on entry and exit).
/// Exact schemes must return the truth exactly once each; SRC-i may add
/// false positives, which must lie outside the range. `true_ids` receives
/// the truth size.
bool CheckIds(const Data& d, bool exact, const Range& r,
              const std::vector<uint64_t>& ids, std::vector<uint8_t>& marks,
              size_t& true_ids) {
  const auto lo = std::lower_bound(d.attr_sorted.begin(), d.attr_sorted.end(),
                                   r.lo) -
                  d.attr_sorted.begin();
  const auto hi = std::upper_bound(d.attr_sorted.begin(), d.attr_sorted.end(),
                                   r.hi) -
                  d.attr_sorted.begin();
  for (auto i = lo; i < hi; ++i) marks[d.id_sorted[i]] = 1;
  true_ids = static_cast<size_t>(hi - lo);
  bool ok = true;
  size_t matched = 0;
  for (uint64_t id : ids) {
    if (id >= marks.size()) {
      ok = false;
    } else if (marks[id] == 1) {
      marks[id] = 2;
      ++matched;
    } else if (marks[id] == 2 || exact || r.Contains(d.attr_of_id[id])) {
      ok = false;  // duplicate, or an id the range does not hold
    }
  }
  for (auto i = lo; i < hi; ++i) marks[d.id_sorted[i]] = 0;
  return ok && matched == true_ids;
}

// ---------------------------------------------------------------------------
// The owner's wire backend.
// ---------------------------------------------------------------------------

/// Resolves one round's tokens on the daemon with the EmmClient calls that
/// server::RemoteBackend::Resolve makes, keeping the round's SearchDone.
Result<ResolvedIds> ResolveRound(server::EmmClient& client,
                                 const TokenSet& tokens,
                                 server::SearchDone& done) {
  ResolvedIds out;
  if (!tokens.ggm.empty()) {
    server::EmmClient::BatchQuery query;
    query.tokens = tokens.ggm;
    Result<server::EmmClient::BatchOutcome> batch = client.SearchBatch({query});
    if (!batch.ok()) return batch.status();
    done = batch->done;
    out.skipped_decrypts = static_cast<size_t>(done.skipped_decrypts);
    auto it = batch->ids.find(0);
    if (it != batch->ids.end()) {
      out.payloads.reserve(it->second.size());
      for (uint64_t id : it->second) {
        out.payloads.push_back(sse::EncodeIdPayload(id));
      }
    }
    return out;
  }
  server::SearchKeywordRequest req;
  req.store_id = tokens.store;
  server::SearchKeywordRequest::Query query;
  for (const sse::KeywordKeys& keys : tokens.keyword) {
    server::WireKeywordToken t;
    t.a = keys.label_key;
    t.b = keys.value_key;
    query.tokens.push_back(std::move(t));
  }
  req.queries.push_back(std::move(query));
  Result<server::EmmClient::KeywordOutcome> keyword =
      client.SearchKeyword(req);
  if (!keyword.ok()) return keyword.status();
  done = keyword->done;
  out.skipped_decrypts = static_cast<size_t>(done.skipped_decrypts);
  auto it = keyword->payloads.find(0);
  if (it != keyword->payloads.end()) out.payloads = std::move(it->second);
  return out;
}

/// The daemon's busy time for a round of the same kind as `like` that
/// carries no token: taking the store lock, staging the stream, and
/// encoding and queueing one (empty) result frame. Every round pays it.
Result<uint64_t> EmptyRoundBusyNanos(server::EmmClient& client,
                                     const TokenSet& like) {
  if (!like.ggm.empty()) {
    Result<server::EmmClient::BatchOutcome> batch =
        client.SearchBatch({server::EmmClient::BatchQuery{}});
    if (!batch.ok()) return batch.status();
    return batch->done.search_nanos;
  }
  server::SearchKeywordRequest req;
  req.store_id = like.store;
  req.queries.emplace_back();
  Result<server::EmmClient::KeywordOutcome> keyword =
      client.SearchKeyword(req);
  if (!keyword.ok()) return keyword.status();
  return keyword->done.search_nanos;
}

/// SearchBackend for the load connections. It makes the same EmmClient calls
/// as server::RemoteBackend::Resolve, but keeps each round's SearchDone and
/// releases the owner lock for the duration of the remote call: RangeScheme
/// is not thread-safe, so trapdoor generation and decoding stay serialised
/// while several connections wait on the server at once.
class WireBackend final : public SearchBackend {
 public:
  struct Round {
    Clock::time_point start;
    Clock::time_point end;
    uint64_t busy_ns = 0;
    uint64_t leaves = 0;
    size_t results = 0;
  };

  explicit WireBackend(server::EmmClient& client) : client_(client) {}

  /// Starts a query made under `owner_lock`; with `record`, the token sets
  /// and returned payloads are copied out for the stage replay.
  void Begin(std::unique_lock<std::mutex>* owner_lock,
             RecordedQuery* record) {
    owner_lock_ = owner_lock;
    record_ = record;
    rounds_.clear();
  }

  const std::vector<Round>& rounds() const { return rounds_; }

  Result<ResolvedIds> Resolve(const TokenSet& tokens) override {
    if (record_ != nullptr) record_->rounds.push_back(tokens);
    Round round;
    server::SearchDone done;
    owner_lock_->unlock();
    round.start = Clock::now();
    Result<ResolvedIds> out = ResolveRound(client_, tokens, done);
    round.end = Clock::now();
    owner_lock_->lock();
    round.busy_ns = done.search_nanos;
    round.leaves = done.leaves_searched;
    if (out.ok()) {
      round.results = out->payloads.size();
      if (record_ != nullptr) {
        record_->payloads.push_back(out->payloads);
        record_->busy_ns += done.search_nanos;
      }
    }
    rounds_.push_back(round);
    return out;
  }

 private:
  server::EmmClient& client_;
  std::unique_lock<std::mutex>* owner_lock_ = nullptr;
  RecordedQuery* record_ = nullptr;
  std::vector<Round> rounds_;
};

// ---------------------------------------------------------------------------
// Run state.
// ---------------------------------------------------------------------------

struct Connection {
  server::EmmClient client;
  WireBackend backend{client};
  Rng rng;
  /// Seeded offset of this connection's schedule, as a share of its
  /// inter-arrival interval.
  double stagger = 0;
  uint32_t lane = 0;
  std::vector<uint8_t> marks;

  explicit Connection(uint64_t seed) : rng(seed) {}
};

/// Per-query costs summed over a phase (reported by the traced run).
struct QueryCosts {
  size_t queries = 0;
  double trapdoor_ns = 0;
  double decode_ns = 0;
  double resolve_ns = 0;
  double busy_ns = 0;
  uint64_t leaves = 0;
  uint64_t results = 0;
  uint64_t tokens = 0;
  uint64_t token_bytes = 0;
  uint64_t rounds = 0;
  uint64_t true_ids = 0;
  uint64_t returned_ids = 0;

  void Add(const QueryCosts& o) {
    queries += o.queries;
    trapdoor_ns += o.trapdoor_ns;
    decode_ns += o.decode_ns;
    resolve_ns += o.resolve_ns;
    busy_ns += o.busy_ns;
    leaves += o.leaves;
    results += o.results;
    tokens += o.tokens;
    token_bytes += o.token_bytes;
    rounds += o.rounds;
    true_ids += o.true_ids;
    returned_ids += o.returned_ids;
  }
};

struct PhaseStats {
  /// One entry per request sent; +inf for a failed, wrong or retried one.
  std::vector<double> latency_ms;
  size_t scheduled = 0;
  /// Correct answers completed by the phase end plus one latency limit.
  size_t on_time = 0;
  size_t failed = 0;
  /// Generator wake-up lateness on idle connections.
  std::vector<double> late_ms;
  QueryCosts costs;
  std::vector<Span> spans;
  std::vector<RecordedQuery> records;

  void Add(PhaseStats&& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    scheduled += o.scheduled;
    on_time += o.on_time;
    failed += o.failed;
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    costs.Add(o.costs);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    for (RecordedQuery& r : o.records) records.push_back(std::move(r));
  }
  double p50() const { return Percentile(latency_ms, 50); }
  double p99() const { return Percentile(latency_ms, 99); }
};

struct WriterStats {
  std::vector<double> latency_ms;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<uint64_t> acked_ids;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class WorkloadRun {
 public:
  WorkloadRun(const Workload& w, const Options& opt, std::string serverd)
      : w_(w),
        opt_(opt),
        serverd_(std::move(serverd)),
        data_(MakeData(w, opt.smoke ? w.records / 8 : w.records, opt.seed)) {}

  ~WorkloadRun() {
    daemon_.reset();
    if (!data_root_.empty()) {
      std::error_code ec;
      fs::remove_all(data_root_, ec);
    }
  }

  /// Runs the workload; false on any correctness or validity failure.
  bool Execute();

  const std::vector<Metric>& metrics() const { return metrics_; }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  struct SetupTimes {
    double setup_s = 0, build_s = 0, export_s = 0, boot_s = 0, ship_s = 0;
  };
  /// Every set-up's times, and the bytes the serving one shipped.
  struct SetupSummary {
    std::vector<double> setup_s, build_s, export_s, boot_s, ship_s;
    size_t shipped = 0;
  };
  /// A daemon with the owner's index installed on it.
  struct Deployment {
    std::unique_ptr<ServerdProcess> daemon;
    std::unique_ptr<RangeScheme> scheme;
    ServerSetup setup;
  };
  /// What the load phases measured.
  struct Measured {
    PhaseStats light;
    PhaseStats loaded;
    PhaseStats traced_light;
    /// The traced queries' stages, replayed after the load phases.
    StageTotals stages;
    double knee_qps = 0;
    double late_p99_ms = 0;
    size_t reconnects = 0;
    server::StatsResponse stats;
    double rss_mb = 0;
  };

  std::unique_ptr<RangeScheme> MakeScheme() const;
  Status Deploy(const std::string& data_dir, Deployment& d, SetupTimes& t);
  Result<std::unique_ptr<ServerdProcess>> Spawn(
      const std::string& data_dir) const;
  bool QueryOnce(RangeScheme& scheme, server::EmmClient& client,
                 const Range& r, std::vector<uint64_t>* ids);
  Status Connect();
  PhaseStats RunPhase(double rate, double seconds, bool traced);
  void DriveConnection(Connection& conn, double rate, Clock::time_point start,
                       Clock::time_point end, bool traced, PhaseStats& out);
  void DriveWriter(server::EmmClient& client, std::atomic<bool>& stop);
  Status PrepareWriter();
  double KneeSearch(const PhaseStats& loaded, double step_s);
  Result<double> Recover();
  bool SetupOnce(SetupSummary& out);
  bool Serve(SetupSummary& setup, Measured& m);
  void ReplayTraced(Measured& m);
  void ReportPerLayer(const SetupSummary& setup, const Measured& m,
                      double recovery_s);
  void Fail(const std::string& what) {
    std::fprintf(stderr, "serve_bench[%s]: FAIL: %s\n", w_.name, what.c_str());
    correct_ = false;
  }
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  void CountPhase(const PhaseStats& s) {
    attempted_ += s.latency_ms.size();
    failed_ += s.failed;
    if (s.failed > 0) Fail(std::to_string(s.failed) + " failed queries");
  }
  void Report(const char* phase, const PhaseStats& s, double rate) const {
    std::printf("# %-12s %-9s rate %7.1f qps  n %6zu  p50 %8.3f ms  p99 %8.3f "
                "ms  failed %zu  on-time %zu/%zu  late p99 %.3f ms\n",
                w_.name, phase, rate, s.latency_ms.size(), s.p50(), s.p99(),
                s.failed, s.on_time, s.scheduled, Percentile(s.late_ms, 99));
  }
  int Readers() const { return w_.writer ? kConnections - 1 : kConnections; }
  bool Traced() const { return !opt_.trace_path.empty(); }
  bool Passes(const PhaseStats& s) const {
    return s.failed == 0 && !s.latency_ms.empty() && s.p99() <= kLimitMs &&
           static_cast<double>(s.on_time) >=
               0.99 * static_cast<double>(s.scheduled);
  }

  const Workload& w_;
  const Options opt_;
  const std::string serverd_;
  Data data_;
  const Clock::time_point epoch_ = Clock::now();

  std::unique_ptr<ServerdProcess> daemon_;
  std::unique_ptr<RangeScheme> scheme_;
  ServerSetup setup_;
  std::mutex owner_mu_;
  std::string data_root_;
  std::string data_dir_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::atomic<uint64_t> next_request_{1};
  Range first_range_;

  // update_mix writer: per-slot keys of the reserved update slice.
  std::vector<sse::KeywordKeys> slot_keys_;
  uint64_t initial_entries_ = 0;
  WriterStats writer_;

  std::vector<Metric> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  bool correct_ = true;
};

std::unique_ptr<RangeScheme> WorkloadRun::MakeScheme() const {
  if (w_.scheme == SchemeKind::kSrcI) {
    auto s = std::make_unique<LogarithmicSrcIScheme>(opt_.seed,
                                                     kSrcIPadQuantum);
    s->EnableBloomGate(kSrcIGateFpRate);
    return s;
  }
  auto s = std::make_unique<ConstantScheme>(CoverTechnique::kBrc, opt_.seed);
  s->SetShards(kConstantShards);
  return s;
}

Result<std::unique_ptr<ServerdProcess>> WorkloadRun::Spawn(
    const std::string& data_dir) const {
  ServerdProcess::Options o;
  o.binary = serverd_;
  o.search_workers = kSearchWorkers;
  o.data_dir = data_dir;
  return ServerdProcess::Spawn(o);
}

/// One protocol run outside the load phases (setup and recovery probes).
bool WorkloadRun::QueryOnce(RangeScheme& scheme, server::EmmClient& client,
                            const Range& r, std::vector<uint64_t>* ids) {
  WireBackend backend(client);
  std::unique_lock<std::mutex> lock(owner_mu_);
  backend.Begin(&lock, nullptr);
  Result<QueryResult> res = scheme.QueryVia(backend, r);
  lock.unlock();
  if (!res.ok()) {
    std::fprintf(stderr, "serve_bench[%s]: query failed: %s\n", w_.name,
                 res.status().ToString().c_str());
    return false;
  }
  if (ids != nullptr) {
    *ids = res->ids;
    return true;
  }
  std::vector<uint8_t> marks(data_.attr_of_id.size());
  size_t true_ids = 0;
  return CheckIds(data_, w_.scheme != SchemeKind::kSrcI, r, res->ids, marks,
                  true_ids);
}

Status WorkloadRun::Deploy(const std::string& data_dir, Deployment& d,
                           SetupTimes& t) {
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<ServerdProcess>> daemon = Spawn(data_dir);
  if (!daemon.ok()) return daemon.status();
  d.daemon = std::move(daemon).value();
  const Clock::time_point t1 = Clock::now();
  d.scheme = MakeScheme();
  RSSE_RETURN_IF_ERROR(d.scheme->Build(data_.dataset));
  const Clock::time_point t2 = Clock::now();
  Result<ServerSetup> setup = d.scheme->ExportServerSetup();
  if (!setup.ok()) return setup.status();
  d.setup = std::move(setup).value();
  const Clock::time_point t3 = Clock::now();
  server::EmmClient client;
  RSSE_RETURN_IF_ERROR(client.Connect("127.0.0.1", d.daemon->port()));
  RSSE_RETURN_IF_ERROR(server::InstallServerSetup(client, d.setup));
  const Clock::time_point t4 = Clock::now();
  if (!QueryOnce(*d.scheme, client, first_range_, nullptr)) {
    return Status::Internal("first answer after setup is wrong");
  }
  const Clock::time_point t5 = Clock::now();
  t.setup_s = Seconds(t5 - t0);
  t.boot_s = Seconds(t1 - t0);
  t.build_s = Seconds(t2 - t1);
  t.export_s = Seconds(t3 - t2);
  t.ship_s = Seconds(t4 - t3);
  return Status::Ok();
}

Status WorkloadRun::Connect() {
  conns_.clear();
  const int total = Readers();
  Rng stagger(opt_.seed ^ 0x5ca1ab1eull);
  for (int i = 0; i < total; ++i) {
    auto c = std::make_unique<Connection>(opt_.seed * 1000003 + i + 1);
    c->lane = static_cast<uint32_t>(i + 1);
    c->stagger = stagger.UniformReal();
    c->marks.assign(data_.attr_of_id.size(), 0);
    RSSE_RETURN_IF_ERROR(c->client.Connect("127.0.0.1", daemon_->port()));
    conns_.push_back(std::move(c));
  }
  return Status::Ok();
}

void WorkloadRun::DriveConnection(Connection& conn, double rate,
                                  Clock::time_point start,
                                  Clock::time_point end, bool traced,
                                  PhaseStats& out) {
  const double interval_s = static_cast<double>(Readers()) / rate;
  const double length_s = Seconds(end - start);
  const double offset_s = conn.stagger * interval_s;
  if (offset_s >= length_s) return;
  const size_t n =
      static_cast<size_t>(std::ceil((length_s - offset_s) / interval_s));
  out.scheduled += n;
  // The default 50 us timer slack would be charged to every idle wake-up.
  prctl(PR_SET_TIMERSLACK, 1UL);
  const Clock::time_point give_up = end + FromSeconds(kLimitMs / 1e3);
  const bool exact = w_.scheme != SchemeKind::kSrcI;
  for (size_t k = 0; k < n; ++k) {
    const Clock::time_point due =
        start + FromSeconds(offset_s + static_cast<double>(k) * interval_s);
    // Past the phase end plus one limit, no remaining arrival can be on
    // time: they count as late, and the backlog is not worked off.
    if (Clock::now() > give_up) break;
    if (Clock::now() < due) {
      std::this_thread::sleep_until(due);
      out.late_ms.push_back(Ms(Clock::now() - due));
    }
    const Range r = RandomRange(conn.rng, data_, w_.width);
    const uint64_t request = next_request_.fetch_add(1);
    RecordedQuery record;
    record.request = request;
    const size_t reconnects = conn.client.ReconnectCount();

    std::unique_lock<std::mutex> lock(owner_mu_);
    const Clock::time_point begin = Clock::now();
    conn.backend.Begin(&lock, traced ? &record : nullptr);
    Result<QueryResult> res = scheme_->QueryVia(conn.backend, r);
    const Clock::time_point finish = Clock::now();
    lock.unlock();

    const double latency = Ms(finish - due);
    size_t true_ids = 0;
    const bool ok = res.ok() && conn.client.ReconnectCount() == reconnects &&
                    CheckIds(data_, exact, r, res->ids, conn.marks, true_ids);
    out.latency_ms.push_back(ok ? latency : INFINITY);
    if (!ok) {
      ++out.failed;
      std::fprintf(stderr, "serve_bench[%s]: request %llu failed: %s\n",
                   w_.name, static_cast<unsigned long long>(request),
                   res.ok() ? "wrong or retried answer"
                            : res.status().ToString().c_str());
      continue;
    }
    if (finish <= give_up) ++out.on_time;

    const std::vector<WireBackend::Round>& rounds = conn.backend.rounds();
    QueryCosts& c = out.costs;
    ++c.queries;
    c.trapdoor_ns += static_cast<double>(res->trapdoor_nanos);
    c.decode_ns += Nanos(finish - rounds.back().end);
    for (const WireBackend::Round& rd : rounds) {
      c.resolve_ns += Nanos(rd.end - rd.start);
      c.busy_ns += static_cast<double>(rd.busy_ns);
      c.leaves += rd.leaves;
      c.results += rd.results;
    }
    c.tokens += res->token_count;
    c.token_bytes += res->token_bytes;
    c.rounds += static_cast<uint64_t>(res->rounds);
    c.true_ids += true_ids;
    c.returned_ids += res->ids.size();

    if (!traced) continue;
    // Spans: query = wait (schedule + owner lock) + trapdoor/resolve rounds
    // + decode; they tile the query's latency exactly.
    auto at = [this](Clock::time_point t) {
      return static_cast<uint64_t>(Nanos(t - epoch_));
    };
    uint64_t span_id = request * 8;
    const uint64_t query_span = span_id++;
    auto push = [&](const char* name, Clock::time_point a, Clock::time_point b,
                    double busy_us) {
      out.spans.push_back(Span{name, span_id++, query_span, request,
                               conn.lane, at(a), at(b) - at(a), busy_us});
    };
    push("owner.wait", due, begin, -1.0);
    Clock::time_point owner_from = begin;
    for (const WireBackend::Round& rd : rounds) {
      push("owner.trapdoor", owner_from, rd.start, -1.0);
      push("server.resolve", rd.start, rd.end,
           static_cast<double>(rd.busy_ns) / 1e3);
      owner_from = rd.end;
    }
    push("owner.decode", owner_from, finish, -1.0);
    out.spans.push_back(Span{"query", query_span, 0, request, conn.lane,
                             at(due), at(finish) - at(due), -1.0});
    out.records.push_back(std::move(record));
  }
}

PhaseStats WorkloadRun::RunPhase(double rate, double seconds, bool traced) {
  // A short lead lets every thread reach its first arrival in time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end = start + FromSeconds(seconds);
  std::vector<PhaseStats> parts(conns_.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < conns_.size(); ++i) {
    threads.emplace_back([&, i] {
      DriveConnection(*conns_[i], rate, start, end, traced, parts[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseStats all;
  for (PhaseStats& p : parts) all.Add(std::move(p));
  return all;
}

// ---------------------------------------------------------------------------
// update_mix: a writer inserting real, searchable records into the reserved
// update slice, and the crash-restart durability check.
// ---------------------------------------------------------------------------

Status WorkloadRun::PrepareWriter() {
  auto* constant = dynamic_cast<ConstantScheme*>(scheme_.get());
  if (constant == nullptr) return Status::Internal("writer needs Constant");
  slot_keys_.clear();
  for (uint64_t v = data_.static_values; v < data_.dataset.domain().size;
       ++v) {
    // A single-value BRC cover is the leaf itself: its seed is the DPRF
    // value the index derives that keyword's keys from.
    const std::vector<GgmDprf::Token> leaf = constant->Delegate(Range{v, v});
    if (leaf.size() != 1 || leaf[0].level != 0) {
      return Status::Internal("unexpected single-value cover");
    }
    slot_keys_.push_back(sse::KeysFromSharedSecret(leaf[0].seed));
  }
  server::EmmClient client;
  RSSE_RETURN_IF_ERROR(client.Connect("127.0.0.1", daemon_->port()));
  Result<server::StatsResponse> stats = client.Stats();
  if (!stats.ok()) return stats.status();
  initial_entries_ = stats->entries;
  return Status::Ok();
}

void WorkloadRun::DriveWriter(server::EmmClient& client,
                              std::atomic<bool>& stop) {
  const double interval_s = 1.0 / kWriteBatchesPerSecond;
  const Clock::time_point start = Clock::now();
  const uint64_t slots = slot_keys_.size();
  for (uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
    const Clock::time_point due =
        start + FromSeconds(static_cast<double>(k) * interval_s);
    std::this_thread::sleep_until(due);
    std::vector<std::pair<Label, Bytes>> entries;
    std::vector<uint64_t> ids;
    for (size_t e = 0; e < kWriteBatchEntries; ++e) {
      // Entry number i of the slice goes to slot i % slots with counter
      // i / slots, so every slot's counters stay dense.
      const uint64_t i = writer_.acked_ids.size() + ids.size();
      const uint64_t id = data_.attr_of_id.size() + i;
      const sse::KeywordKeys& keys = slot_keys_[i % slots];
      Label label;
      const crypto::Prf prf(keys.label_key);
      Bytes plain = {sse::kEmmRealMarker};
      Append(plain, sse::EncodeIdPayload(id));
      Result<Bytes> ct = crypto::Aes128Cbc::Encrypt(keys.value_key, plain);
      if (!prf.EvalCountersInto(i / slots, 1,
                                ByteSpan(label.data(), label.size()),
                                kLabelBytes) ||
          !ct.ok()) {
        ++writer_.failed;
        return;
      }
      entries.emplace_back(label, std::move(ct).value());
      ids.push_back(id);
    }
    ++writer_.attempted;
    Result<server::UpdateResponse> resp = client.Update(entries);
    if (!resp.ok()) {
      // Never retried: the batch may or may not have landed, which breaks
      // the dense counters the durability check relies on.
      ++writer_.failed;
      std::fprintf(stderr, "serve_bench[%s]: update failed: %s\n", w_.name,
                   resp.status().ToString().c_str());
      return;
    }
    writer_.latency_ms.push_back(Ms(Clock::now() - due));
    writer_.acked_ids.insert(writer_.acked_ids.end(), ids.begin(), ids.end());
  }
}

/// SIGKILLs the serving daemon and brings up a successor: from the data
/// dir (durable), or by re-shipping the exported setup. Returns the time
/// from restart to the first correct answer, after checking durability.
Result<double> WorkloadRun::Recover() {
  daemon_.reset();
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<ServerdProcess>> daemon = Spawn(data_dir_);
  if (!daemon.ok()) return daemon.status();
  daemon_ = std::move(daemon).value();
  server::EmmClient client;
  RSSE_RETURN_IF_ERROR(client.Connect("127.0.0.1", daemon_->port()));
  if (!w_.writer) {
    RSSE_RETURN_IF_ERROR(server::InstallServerSetup(client, setup_));
  }
  if (!QueryOnce(*scheme_, client, first_range_, nullptr)) {
    return Status::Internal("first answer after restart is wrong");
  }
  const double seconds = Seconds(Clock::now() - t0);
  if (w_.writer) {
    Result<server::StatsResponse> stats = client.Stats();
    if (!stats.ok()) return stats.status();
    const uint64_t expected = initial_entries_ + writer_.acked_ids.size();
    if (stats->entries != expected) {
      return Status::Internal(
          "lost acked updates: " + std::to_string(stats->entries) +
          " entries after restart, expected " + std::to_string(expected));
    }
    std::vector<uint64_t> ids;
    if (!QueryOnce(*scheme_, client,
                   Range{data_.static_values, data_.dataset.domain().size - 1},
                   &ids)) {
      return Status::Internal("update-slice query failed after restart");
    }
    std::sort(ids.begin(), ids.end());
    if (ids != writer_.acked_ids) {
      return Status::Internal("update slice after restart holds " +
                              std::to_string(ids.size()) + " ids, expected " +
                              std::to_string(writer_.acked_ids.size()));
    }
  }
  return seconds;
}

double WorkloadRun::KneeSearch(const PhaseStats& loaded, double step_s) {
  struct Step {
    double rate;
    double p99;
  };
  std::optional<Step> lo;  // highest passing rate
  std::optional<Step> hi;  // lowest failing rate
  auto note = [&](double rate, const PhaseStats& s) {
    if (Passes(s)) {
      if (!lo || rate > lo->rate) lo = Step{rate, s.p99()};
      return true;
    }
    // A step may fail on completions alone; its p99 is then the limit.
    if (!hi || rate < hi->rate) {
      hi = Step{rate, std::max(s.p99(), kLimitMs)};
    }
    return false;
  };
  // A failing step runs once more before it counts, so that one scheduler
  // stall on a shared host cannot end the search far below the knee. The
  // search stops when its step budget is spent.
  int budget = kKneeSteps;
  auto step = [&](double rate) {
    for (int attempt = 0;; ++attempt) {
      --budget;
      PhaseStats s = RunPhase(rate, step_s, false);
      CountPhase(s);
      Report(attempt == 0 ? "knee-step" : "knee-again", s, rate);
      if (Passes(s) || attempt == 1 || budget == 0) return note(rate, s);
    }
  };
  double rate = w_.loaded_qps;
  bool last = Passes(loaded) ? note(rate, loaded) : step(rate);
  while (budget > 0 && !(lo && hi)) {
    rate *= last ? 1.25 : 0.8;
    last = step(rate);
  }
  // No step passed: the knee lies below every rate tried, and none of them
  // may be reported as sustained.
  if (!lo) {
    std::printf("# %-12s knee below the lowest rate tried (%.1f qps): 0\n",
                w_.name, hi->rate);
    return 0.0;
  }
  if (!hi) return lo->rate;
  for (int i = 0; i < 3 && budget > 0; ++i) {
    step(std::sqrt(lo->rate * hi->rate));
  }
  // Interpolate, log-linearly in rate and p99, where the p99 limit falls
  // between the highest passing and the lowest failing step.
  if (hi->rate <= lo->rate) return lo->rate;
  double f = 0;
  if (hi->p99 > lo->p99 && lo->p99 > 0) {
    f = std::log(kLimitMs / lo->p99) / std::log(hi->p99 / lo->p99);
  }
  return lo->rate * std::pow(hi->rate / lo->rate, std::clamp(f, 0.0, 1.0));
}

bool WorkloadRun::Execute() {
  Rng first(opt_.seed ^ 0xf125ull);
  first_range_ = RandomRange(first, data_, w_.width);
  if (w_.writer) {
    data_root_ = (fs::path(opt_.work_dir) /
                  (std::string(w_.name) + "-" + std::to_string(getpid())))
                     .string();
    std::error_code ec;
    fs::remove_all(data_root_, ec);
    fs::create_directories(data_root_, ec);
    if (ec) {
      Fail("cannot create " + data_root_ + ": " + ec.message());
      return false;
    }
  }
  SetupSummary setup;
  Measured m;
  if (!SetupOnce(setup) || !Serve(setup, m)) return false;
  std::printf("# %-12s setup %.3f s (n %zu; build %.3f, export %.3f, boot "
              "%.3f, ship %.3f); %zu records, %.1f MB shipped\n",
              w_.name, Median(setup.setup_s), setup.setup_s.size(),
              Median(setup.build_s), Median(setup.export_s),
              Median(setup.boot_s), Median(setup.ship_s),
              data_.attr_of_id.size(),
              static_cast<double>(setup.shipped) / 1e6);
  // Every run crash-restarts the daemon once to check the successor (and,
  // on update_mix, that no acked update was lost); a traced run repeats it
  // for a median recovery time.
  std::vector<double> recovery_s;
  const int restarts = Traced() && !opt_.smoke ? kRestarts : 1;
  for (int rep = 0; rep < restarts; ++rep) {
    ++attempted_;
    Result<double> r = Recover();
    if (!r.ok()) {
      ++failed_;
      Fail("recovery: " + r.status().ToString());
      break;
    }
    recovery_s.push_back(*r);
  }
  std::printf("# %-12s light p50 %.3f p99 %.3f ms (n %zu) | loaded p50 %.3f "
              "p99 %.3f ms (n %zu) | knee %.1f qps | recovery %.3f s\n",
              w_.name, m.light.p50(), m.light.p99(), m.light.latency_ms.size(),
              m.loaded.p50(), m.loaded.p99(), m.loaded.latency_ms.size(),
              m.knee_qps, Median(recovery_s));
  if (Traced()) {
    ReportPerLayer(setup, m, Median(recovery_s));
  } else {
    Add("setup_s", Median(setup.setup_s), "s");
    Add("index_bytes_per_record",
        static_cast<double>(setup.shipped) /
            static_cast<double>(data_.attr_of_id.size()),
        "B");
    Add("server_rss_mb", m.rss_mb, "MB");
  }
  return correct_;
}

/// Sets up from scratch: a new daemon (on update_mix with a new data dir),
/// owner Build, export, install, and a first correct answer. The first
/// deployment serves the run. Later ones run beside the idle serving daemon
/// only to time the set-up again, and are torn down.
bool WorkloadRun::SetupOnce(SetupSummary& out) {
  const size_t rep = out.setup_s.size();
  std::string dir;
  if (w_.writer) {
    dir = (fs::path(data_root_) / ("rep" + std::to_string(rep))).string();
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      Fail("cannot create " + dir + ": " + ec.message());
      return false;
    }
  }
  ++attempted_;
  Deployment d;
  SetupTimes t;
  if (const Status s = Deploy(dir, d, t); !s.ok()) {
    ++failed_;
    Fail("setup: " + s.ToString());
    return false;
  }
  out.setup_s.push_back(t.setup_s);
  out.build_s.push_back(t.build_s);
  out.export_s.push_back(t.export_s);
  out.boot_s.push_back(t.boot_s);
  out.ship_s.push_back(t.ship_s);
  if (rep == 0) {
    daemon_ = std::move(d.daemon);
    scheme_ = std::move(d.scheme);
    setup_ = std::move(d.setup);
    data_dir_ = dir;
    for (const StoreSetup& s : setup_.stores) {
      out.shipped += s.index_blob.size() + s.gate_blob.size();
    }
  } else if (w_.writer) {
    d.daemon.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  return true;
}

bool WorkloadRun::Serve(SetupSummary& setup, Measured& m) {
  if (w_.writer) {
    // A durable daemon serves its index off the mapped snapshot once it
    // has restarted on its data dir, so update_mix restarts it before
    // the load phases (checking the successor like any restart).
    Status s = PrepareWriter();
    if (s.ok()) {
      ++attempted_;
      if (Result<double> r = Recover(); !r.ok()) {
        ++failed_;
        s = r.status();
      }
    }
    if (!s.ok()) {
      Fail("writer: " + s.ToString());
      return false;
    }
  }
  if (Status s = Connect(); !s.ok()) {
    Fail("connect: " + s.ToString());
    return false;
  }
  server::EmmClient writer_client;
  std::atomic<bool> stop_writer{false};
  std::thread writer;
  if (w_.writer) {
    if (Status s = writer_client.Connect("127.0.0.1", daemon_->port());
        !s.ok()) {
      Fail("writer: " + s.ToString());
      return false;
    }
    writer = std::thread([&] { DriveWriter(writer_client, stop_writer); });
  }

  // Phase lengths as shares of --seconds: warm-up 10%, four light blocks
  // of 6.25% interleaved with two loaded blocks of 10%, and the knee search
  // (at most kKneeSteps steps of 4%) before the last light block. A set-up
  // follows each light block. A traced run records spans in its last light
  // block only.
  const double S = opt_.seconds;
  auto phase = [&](const char* name, double rate, double share, bool traced) {
    PhaseStats s = RunPhase(rate, S * share, traced);
    CountPhase(s);
    Report(name, s, rate);
    return s;
  };
  phase("warm-up", w_.loaded_qps, 0.1, false);
  bool set_up = true;
  for (int block = 0; block < kLightBlocks; ++block) {
    if (Traced() && block == kLightBlocks - 1) {
      m.traced_light = phase("traced", w_.light_qps, 0.0625, true);
    } else {
      m.light.Add(phase("light", w_.light_qps, 0.0625, false));
    }
    if (!SetupOnce(setup)) {
      set_up = false;
      break;
    }
    if (block < 2) m.loaded.Add(phase("loaded", w_.loaded_qps, 0.1, false));
    if (block == 2) m.knee_qps = KneeSearch(m.loaded, S * 0.04);
  }
  std::vector<double> late = m.light.late_ms;
  for (const PhaseStats* p : {&m.loaded, &m.traced_light}) {
    late.insert(late.end(), p->late_ms.begin(), p->late_ms.end());
  }
  if (writer.joinable()) {
    stop_writer.store(true);
    writer.join();
  }
  if (!set_up) return false;
  if (w_.writer) {
    attempted_ += writer_.attempted;
    failed_ += writer_.failed;
    if (writer_.failed > 0) Fail("update batches failed");
    std::printf("# %-12s updates n %zu  p50 %.3f ms  p99 %.3f ms\n", w_.name,
                writer_.latency_ms.size(), Percentile(writer_.latency_ms, 50),
                Percentile(writer_.latency_ms, 99));
  }
  if (Traced()) ReplayTraced(m);

  // Generator health: a run whose own wake-ups lag is invalid. A smoke run
  // times too few arrivals for the rule: one stall of the host moves its
  // p99, and it measures nothing, so there the lateness is only printed.
  m.late_p99_ms = Percentile(late, 99);
  if (m.late_p99_ms > 0.1 * kLimitMs && !opt_.smoke) {
    Fail("invalid run: generator lateness p99 " +
         std::to_string(m.late_p99_ms) + " ms exceeds 10% of the " +
         std::to_string(kLimitMs) + " ms limit");
  }
  for (const auto& c : conns_) m.reconnects += c->client.ReconnectCount();
  if (Result<server::StatsResponse> s = conns_[0]->client.Stats(); s.ok()) {
    m.stats = *s;
  } else {
    Fail("stats: " + s.status().ToString());
  }
  m.rss_mb = static_cast<double>(daemon_->PeakRssBytes()) / 1e6;
  conns_.clear();
  return true;
}

/// Re-sends every traced query to the idle serving daemon, one at a time
/// and each round followed by an empty round of its kind, and replays each
/// query's server side in process right after. The daemon's busy time and
/// the replayed stages are thus measured milliseconds apart, on the same
/// queries, so the host's changes of speed mostly stay out of their ratio,
/// trace.stage_coverage. All of the phase's queries are taken, so that the
/// pass lasts long enough (about a second) to average over those changes.
/// The daemon and the replay are held to one CPU for the pass: a host's
/// CPUs that share cores with other tenants differ in speed at any moment.
void WorkloadRun::ReplayTraced(Measured& m) {
  Result<StageReplay> replay = StageReplay::Open(setup_);
  if (!replay.ok()) {
    Fail("replay: " + replay.status().ToString());
    return;
  }
  cpu_set_t all;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  const bool have_all = sched_getaffinity(0, sizeof(all), &all) == 0;
  const bool pinned = have_all && daemon_->SetAffinity(one).ok() &&
                      sched_setaffinity(0, sizeof(one), &one) == 0;
  if (!pinned) std::printf("# %-12s replay not pinned to one CPU\n", w_.name);

  server::EmmClient& client = conns_[0]->client;
  std::vector<Span>& spans = m.traced_light.spans;
  uint64_t at = static_cast<uint64_t>(Nanos(Clock::now() - epoch_));
  uint64_t span_id = next_request_.load() * 8;
  auto pass = [&]() -> Status {
    for (RecordedQuery& rq : m.traced_light.records) {
      for (const TokenSet& tokens : rq.rounds) {
        server::SearchDone done;
        ++attempted_;
        Result<ResolvedIds> resolved = ResolveRound(client, tokens, done);
        if (!resolved.ok()) {
          ++failed_;
          return resolved.status();
        }
        ++attempted_;
        Result<uint64_t> empty = EmptyRoundBusyNanos(client, tokens);
        if (!empty.ok()) {
          ++failed_;
          return empty.status();
        }
        rq.idle_busy_ns += done.search_nanos;
        rq.staging_ns += *empty;
      }
      RSSE_RETURN_IF_ERROR(replay->Replay(rq, m.stages, spans, at, span_id));
      at = spans.back().start_ns + spans.back().dur_ns;
    }
    return Status::Ok();
  };
  const Status s = pass();
  if (have_all) {
    sched_setaffinity(0, sizeof(all), &all);
    if (Status r = daemon_->SetAffinity(all); !r.ok()) Fail(r.ToString());
  }
  if (!s.ok()) Fail("replay: " + s.ToString());
}

void WorkloadRun::ReportPerLayer(const SetupSummary& setup, const Measured& m,
                                 double recovery_s) {
  if (Status s = WriteChromeTrace(opt_.trace_path, m.traced_light.spans);
      !s.ok()) {
    Fail(s.ToString());
  }
  const StageTotals& st = m.stages;
  const QueryCosts& c = m.traced_light.costs;
  const double q = static_cast<double>(std::max<size_t>(c.queries, 1));
  const double rq = static_cast<double>(std::max<size_t>(st.queries, 1));
  const double replay_ns = st.expand_ns + st.kdf_ns + st.search_ns +
                           st.encode_ns + st.staging_ns;
  const double hits = static_cast<double>(st.search.probes - st.keywords);
  const double kw = static_cast<double>(std::max<uint64_t>(st.keywords, 1));
  auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  auto count = [](auto v) { return static_cast<double>(v); };
  // The serving numbers a user sees. They do not repeat within a 10%
  // regression bound on a shared host (see README.md), so they are listed
  // here, without one.
  Add("e2e.light_p50_ms", m.light.p50(), "ms");
  Add("e2e.light_p99_ms", m.light.p99(), "ms");
  Add("e2e.loaded_p50_ms", m.loaded.p50(), "ms");
  Add("e2e.loaded_p99_ms", m.loaded.p99(), "ms");
  Add("e2e.knee_qps", m.knee_qps, "1/s");
  Add("e2e.recovery_s", recovery_s, "s");
  Add("rsse.trapdoor_us", c.trapdoor_ns / q / 1e3, "us");
  Add("rsse.decode_us", c.decode_ns / q / 1e3, "us");
  Add("rsse.result_precision", ratio(count(c.true_ids), count(c.returned_ids)),
      "ratio");
  Add("rsse.tokens_per_query", count(c.tokens) / q, "count");
  Add("rsse.token_bytes_per_query", count(c.token_bytes) / q, "B");
  Add("rsse.rounds_per_query", count(c.rounds) / q, "count");
  Add("rsse.build_s", Median(setup.build_s), "s");
  Add("rsse.export_s", Median(setup.export_s), "s");
  Add("server.resolve_us", c.resolve_ns / q / 1e3, "us");
  Add("server.busy_us", c.busy_ns / q / 1e3, "us");
  Add("server.wait_us", (c.resolve_ns - c.busy_ns) / q / 1e3, "us");
  Add("server.boot_s", Median(setup.boot_s), "s");
  Add("server.setup_ship_s", Median(setup.ship_s), "s");
  Add("server.idle_busy_us", count(st.idle_busy_ns) / rq / 1e3, "us");
  Add("server.staging_us", st.staging_ns / rq / 1e3, "us");
  // Only update_mix sends updates; the read-only workloads report 0.
  Add("server.update_p50_ms", Percentile(writer_.latency_ms, 50), "ms");
  Add("server.update_p99_ms", Percentile(writer_.latency_ms, 99), "ms");
  Add("server.heap_bytes", count(m.stats.heap_bytes), "B");
  Add("server.mapped_bytes", count(m.stats.mapped_bytes), "B");
  Add("server.reconnects", count(m.reconnects), "count");
  Add("server.results_per_query", count(c.results) / q, "count");
  Add("server.encode_share", ratio(st.encode_ns, replay_ns), "ratio");
  Add("dprf.expand_share", ratio(st.expand_ns, replay_ns), "ratio");
  Add("dprf.leaves_per_query", count(c.leaves) / q, "count");
  Add("sse.kdf_share", ratio(st.kdf_ns, replay_ns), "ratio");
  Add("sse.search_share", ratio(st.search_ns, replay_ns), "ratio");
  Add("sse.search_us", st.search_ns / rq / 1e3, "us");
  Add("sse.keywords_per_query", count(st.keywords) / rq, "count");
  Add("sse.entries_per_keyword", hits / kw, "count");
  Add("sse.decrypts_per_query", count(st.search.decrypts) / rq, "count");
  Add("sse.gate_skip_ratio",
      ratio(count(st.search.skipped_decrypts),
            count(st.search.skipped_decrypts + st.search.decrypts)),
      "ratio");
  Add("sse.empty_keyword_ratio", count(st.empty_keywords) / kw, "ratio");
  Add("crypto.prf_setup_ns", st.prf_setup_ns / kw, "ns");
  Add("crypto.labels_per_hit", ratio(count(st.label_chunks * 8), hits),
      "count");
  Add("crypto.label_chunk_ns", ratio(st.label_chunk_ns, count(st.label_chunks)),
      "ns");
  Add("crypto.decrypt_ns_per_entry",
      ratio(st.decrypt_ns, count(st.decrypted_entries)), "ns");
  Add("shard.probe_ns", ratio(st.find_ns, count(st.finds)), "ns");
  Add("shard.probes_per_query", count(st.search.probes) / rq, "count");
  Add("shard.probe_hit_ratio", ratio(hits, count(st.search.probes)), "ratio");
  Add("trace.stage_coverage", ratio(replay_ns, count(st.idle_busy_ns)),
      "ratio");
  Add("trace.overhead_pct",
      100.0 * ratio(m.traced_light.p50() - m.light.p50(), m.light.p50()), "%");
  Add("trace.replay_us", replay_ns / rq / 1e3, "us");
  Add("gen.late_p99_ms", m.late_p99_ms, "ms");
  std::printf("# %-12s stages per replayed query (n %zu): expand %.1f us, "
              "kdf %.1f us, search %.1f us, encode %.1f us, staging %.1f us; "
              "busy %.1f us idle, %.1f us under load\n",
              w_.name, st.queries, st.expand_ns / rq / 1e3,
              st.kdf_ns / rq / 1e3, st.search_ns / rq / 1e3,
              st.encode_ns / rq / 1e3, st.staging_ns / rq / 1e3,
              count(st.idle_busy_ns) / rq / 1e3, count(st.busy_ns) / rq / 1e3);
}

std::string ServerdPath() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "rsse_serverd";
  buf[n] = '\0';
  return (fs::path(buf).parent_path() / "rsse_serverd").string();
}

void PrintResult(const WorkloadRun& run) {
  for (const Metric& m : run.metrics()) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              run.correct() ? "true" : "false", run.attempted(), run.failed());
  const std::vector<Metric>& ms = run.metrics();
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(),
                std::isfinite(ms[i].value) ? ms[i].value : -1.0, ms[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const Options opt = ParseFlags(argc, argv);
  std::signal(SIGPIPE, SIG_IGN);
  // Pin every process-wide knob: schemes and the PRG read RSSE_* variables,
  // and the child daemon gets the same scrubbed view plus the PRG backend.
  std::vector<std::string> rsse_vars;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RSSE_", 5) == 0) {
      const std::string var = *e;
      rsse_vars.push_back(var.substr(0, var.find('=')));
    }
  }
  for (const std::string& var : rsse_vars) unsetenv(var.c_str());
  crypto::GgmPrg::SetBackend(crypto::GgmPrg::Backend::kHmac);

  const std::string serverd = ServerdPath();
  if (access(serverd.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "serve_bench: no rsse_serverd beside the binary (%s)\n",
                 serverd.c_str());
    return 1;
  }
  if (!opt.smoke) {
    WorkloadRun run(*FindWorkload(opt.workload), opt, serverd);
    const bool ok = run.Execute();
    PrintResult(run);
    return ok ? 0 : 1;
  }
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    for (const bool traced : {false, true}) {
      Options o = opt;
      o.workload = w.name;
      o.seconds = 2.0;
      if (traced) {
        o.trace_path = (fs::path(opt.work_dir) /
                        ("smoke-" + std::string(w.name) + ".trace.json"))
                           .string();
      }
      WorkloadRun run(w, o, serverd);
      ok = run.Execute() && ok;
      PrintResult(run);
      if (traced) fs::remove(o.trace_path);
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rsse::servebench

int main(int argc, char** argv) { return rsse::servebench::Main(argc, argv); }
