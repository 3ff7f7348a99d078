#include "serve/protocol.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/string_util.h"

namespace stwa {
namespace serve {
namespace {

/// Spaces inside err= values would break token-oriented clients.
std::string Underscored(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  return out;
}

}  // namespace

bool ParseFloatToken(const std::string& token, float* out) {
  char* end = nullptr;
  *out = std::strtof(token.c_str(), &end);
  // nan, inf and overflow-to-inf parse but are no observation: one would
  // poison a stream's window for H steps (and its cache entries).
  return !token.empty() && *end == '\0' && std::isfinite(*out);
}

bool ParseIntToken(const std::string& token, int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(token.c_str(), &end, 10);
  return !token.empty() && *end == '\0';
}

bool ParseValueTokens(const std::vector<std::string>& tokens, size_t first,
                      std::vector<float>* values, std::string* err) {
  values->reserve(tokens.size() - first);
  for (size_t i = first; i < tokens.size(); ++i) {
    float v;
    if (!ParseFloatToken(tokens[i], &v)) {
      *err = "bad value '" + tokens[i] + "'";
      return false;
    }
    values->push_back(v);
  }
  return true;
}

std::string FormatMicros(double micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", micros);
  return buf;
}

std::string FormatForecastResponse(const Response& response, int64_t n,
                                   int64_t u, int64_t f) {
  const std::string degraded = response.degraded ? "1" : "0";
  if (!response.ok) {
    return "forecast ok=0 degraded=" + degraded + " err=" +
           Underscored(response.error.empty() ? "unknown" : response.error);
  }
  std::string line = "forecast ok=1 degraded=" + degraded +
                     " n=" + std::to_string(n) + " u=" + std::to_string(u);
  // " " plus %.9g of a binary32 takes at most 16 bytes ("-1.17549435e-38"
  // is 15), so the line is sized once and to_chars cannot run out.
  constexpr size_t kMaxValueBytes = 16;
  const int64_t total = n * u * f;
  const size_t head = line.size();
  line.resize(head + static_cast<size_t>(total) * kMaxValueBytes);
  char* out = line.data() + head;
  char* const last = line.data() + line.size();
  const float* p = response.forecast.data();
  for (int64_t i = 0; i < total; ++i) {
    *out++ = ' ';
    // General format at precision 9 is printf("%.9g")'s bytes and
    // round-trips binary32 exactly, so piping the protocol output back
    // through strtof reproduces the forecast bytes.
    out = std::to_chars(out, last, p[i], std::chars_format::general, 9).ptr;
  }
  line.resize(static_cast<size_t>(out - line.data()));
  return line;
}

std::string FormatStatsResponse(const ServerStats& stats) {
  std::ostringstream oss;
  oss << "stats submitted=" << stats.submitted
      << " completed=" << stats.completed << " shed=" << stats.shed
      << " batches=" << stats.batches << " mean_batch="
      << FormatFloat(stats.mean_batch, 2)
      << " p50_us=" << FormatMicros(stats.latency.p50())
      << " p95_us=" << FormatMicros(stats.latency.p95())
      << " p99_us=" << FormatMicros(stats.latency.p99())
      << " sc_output_hits=" << stats.stream_cache.output_hits
      << " sc_shift_hits=" << stats.stream_cache.shift_hits
      << " sc_misses=" << stats.stream_cache.misses
      << " sc_stale=" << stats.stream_cache.stale_rejected
      << " sc_bypass=" << stats.stream_cache.bypass
      << " sc_flushes=" << stats.stream_cache.flushes
      << " sc_entries=" << stats.stream_cache.entries
      << " sc_bytes=" << stats.stream_cache.bytes;
  return oss.str();
}

std::string FormatErrorResponse(const std::string& reason) {
  return "err " + Underscored(reason);
}

}  // namespace serve
}  // namespace stwa
