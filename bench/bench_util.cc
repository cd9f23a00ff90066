#include "bench_util.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "data/generators.h"
#include "pb/pb_scheme.h"
#include "rsse/factory.h"

namespace rsse::bench {

Flags::Flags(int argc, char** argv, const std::string& usage)
    : usage_(usage) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s\n", usage.c_str());
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n%s\n", arg.c_str(),
                   usage.c_str());
      std::exit(2);
    }
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "true";
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  // Shared `--json` convention: every driver emits machine-readable rows.
  if (const std::string v = GetString("json", "0"); v != "0" && v != "false") {
    SetJsonOutput(true);
  }
}

uint64_t Flags::GetUint(const std::string& key, uint64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  // from_chars takes no sign, no whitespace and no overflow, and the whole
  // value must parse: "-5", "abc", "12x" and "" are all rejected.
  const std::string& s = it->second;
  uint64_t value = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || end != s.data() + s.size()) {
    RejectValue(key, "a non-negative integer");
  }
  return value;
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& s = it->second;
  double value = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || end != s.data() + s.size() ||
      !std::isfinite(value)) {
    RejectValue(key, "a finite number");
  }
  return value;
}

void Flags::RejectValue(const std::string& key, const char* expected) const {
  std::fprintf(stderr, "--%s=%s: expected %s\n%s\n", key.c_str(),
               values_.at(key).c_str(), expected, usage_.c_str());
  std::exit(2);
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

uint64_t DefaultDomainFor(const std::string& dataset) {
  // Gowalla: timestamps over A = {0..103,017,913}; USPS: salaries over
  // A = {0..276,840} (Section 8). We keep the USPS domain verbatim and use
  // a 2^27 domain as the laptop-scale stand-in for Gowalla's.
  if (dataset == "usps") return 276841;
  return uint64_t{1} << 27;
}

Dataset MakeEvalDataset(const std::string& name, uint64_t n,
                        uint64_t domain_size, uint64_t seed) {
  Rng rng(seed);
  if (name == "usps") return GenerateUspsLike(n, domain_size, rng);
  if (name == "uniform") return GenerateUniform(n, domain_size, rng);
  return GenerateGowallaLike(n, domain_size, rng);
}

std::unique_ptr<RangeScheme> MakeAnyScheme(SchemeId id, uint64_t seed) {
  if (id == SchemeId::kPb) return pb::MakePbScheme(seed);
  return MakeScheme(id, seed);
}

std::vector<SchemeId> EvalSchemes() {
  return {SchemeId::kConstantBrc,    SchemeId::kConstantUrc,
          SchemeId::kLogarithmicBrc, SchemeId::kLogarithmicUrc,
          SchemeId::kLogarithmicSrc, SchemeId::kLogarithmicSrcI,
          SchemeId::kPb};
}

namespace {

bool g_json_output = false;
std::vector<std::string> g_json_header;

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void SetJsonOutput(bool enabled) { g_json_output = enabled; }

void PrintHeaderRow(const std::vector<std::string>& cells) {
  if (g_json_output) {
    g_json_header = cells;
    return;
  }
  PrintRow(cells);
}

void PrintRow(const std::vector<std::string>& cells) {
  static const bool csv = []() {
    const char* env = std::getenv("RSSE_BENCH_CSV");
    return env != nullptr && env[0] == '1';
  }();
  if (g_json_output) {
    std::printf("{");
    for (size_t i = 0; i < cells.size(); ++i) {
      const std::string key = i < g_json_header.size()
                                  ? g_json_header[i]
                                  : "col" + std::to_string(i);
      std::printf("%s\"%s\":\"%s\"", i == 0 ? "" : ",",
                  JsonEscape(key).c_str(), JsonEscape(cells[i]).c_str());
    }
    std::printf("}\n");
    return;
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (csv) {
      std::printf("%s%s", i == 0 ? "" : ",", cells[i].c_str());
    } else {
      std::printf("%-22s", cells[i].c_str());
    }
  }
  std::printf("\n");
}

std::string FormatMb(size_t bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f MB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

}  // namespace rsse::bench
