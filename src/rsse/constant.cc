#include "rsse/constant.h"

#include <algorithm>

#include "crypto/random.h"
#include "sse/keyword_keys.h"

namespace rsse {

namespace {

/// Keyword for domain value `a`: its 8-byte big-endian encoding.
Bytes ValueKeyword(uint64_t a) {
  Bytes out;
  AppendUint64(out, a);
  return out;
}

}  // namespace

DprfKeyDeriver::DprfKeyDeriver(const GgmDprf& dprf,
                               std::vector<uint64_t> values)
    : dprf_(dprf), values_(std::move(values)) {
  std::sort(values_.begin(), values_.end());
  values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
  std::vector<DyadicNode> leaves;
  leaves.reserve(values_.size());
  for (uint64_t v : values_) leaves.push_back(DyadicNode{0, v});
  dprf_.NodeSeedsInto(leaves, secrets_);
}

sse::KeywordKeys DprfKeyDeriver::Derive(const Bytes& w) const {
  const uint64_t v = ReadUint64(w, 0);
  const auto it = std::lower_bound(values_.begin(), values_.end(), v);
  if (it == values_.end() || *it != v) {
    return sse::KeysFromSharedSecret(dprf_.Eval(v));
  }
  const Label& secret = secrets_[static_cast<size_t>(it - values_.begin())];
  sse::KeywordKeys keys;
  sse::KeysFromSharedSecretInto(ConstByteSpan(secret.data(), secret.size()),
                                keys);
  return keys;
}

ConstantScheme::ConstantScheme(CoverTechnique technique, uint64_t rng_seed)
    : technique_(technique), rng_(rng_seed) {}

Status ConstantScheme::Build(const Dataset& dataset) {
  domain_ = dataset.domain();
  if (domain_.size == 0) return Status::InvalidArgument("empty domain");
  bits_ = domain_.Bits();
  dprf_ = std::make_unique<GgmDprf>(crypto::GenerateKey(), bits_);

  sse::PlainMultimap postings;
  for (const Record& rec : dataset.records()) {
    postings[ValueKeyword(rec.attr)].push_back(sse::EncodeIdPayload(rec.id));
  }
  std::vector<uint64_t> values;
  values.reserve(postings.size());
  for (auto& [keyword, payloads] : postings) {
    rng_.Shuffle(payloads);
    values.push_back(ReadUint64(keyword, 0));
  }

  DprfKeyDeriver deriver(*dprf_, std::move(values));
  // The server-side dictionary is hash-sharded (RSSE_SHARDS / SetShards) so
  // build and load scale with cores; a single shard reproduces the flat
  // paper-faithful layout.
  shard::ShardOptions options;
  options.shards = shards_;
  Result<shard::ShardedEmm> index =
      shard::ShardedEmm::Build(postings, deriver, options);
  if (!index.ok()) return index.status();
  index_ = std::move(index).value();
  built_ = true;
  return Status::Ok();
}

std::vector<GgmDprf::Token> ConstantScheme::Delegate(const Range& r) {
  Range clipped = r;
  if (!ClipRangeToDomain(domain_, clipped)) return {};
  return dprf_->Delegate(clipped, technique_, rng_);
}

Result<TokenSet> ConstantScheme::Trapdoor(const Range& r) {
  if (guard_enabled_) {
    for (const Range& past : history_) {
      if (r.Intersects(past)) {
        return Status::FailedPrecondition(
            "Constant schemes forbid intersecting queries (Section 5)");
      }
    }
    history_.push_back(r);
  }
  TokenSet tokens;
  tokens.ggm = Delegate(r);
  return tokens;
}

SearchBackend& ConstantScheme::local_backend() {
  return ConfigureSingleEmmBackend(backend_, index_, nullptr,
                                   search_threads_);
}

Result<ServerSetup> ConstantScheme::ExportServerSetup() const {
  return SingleEmmServerSetup(built_, index_);
}

}  // namespace rsse
