#include "serve/protocol.h"

#include <atomic>
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

Command ParseCommand(const std::string& line) {
  Command cmd;
  std::vector<std::string> tokens;
  {
    std::istringstream iss(line);
    std::string tok;
    while (iss >> tok) tokens.push_back(tok);
  }
  if (tokens.empty() || tokens[0][0] == '#') {
    return cmd;  // kInvalid with empty error: skip the line
  }
  const std::string& verb = tokens[0];
  if (verb == "obs") {
    if (!ParseValueTokens(tokens, 1, &cmd.values, &cmd.error)) return cmd;
    if (cmd.values.empty()) {
      cmd.error = "obs needs at least one value";
      return cmd;
    }
    cmd.kind = Command::Kind::kObs;
    return cmd;
  }
  if (verb == "obs1") {
    if (tokens.size() < 3 || !ParseIntToken(tokens[1], &cmd.sensor)) {
      cmd.error = "usage: obs1 <sensor> <value...>";
      return cmd;
    }
    if (!ParseValueTokens(tokens, 2, &cmd.values, &cmd.error)) return cmd;
    cmd.kind = Command::Kind::kObsSensor;
    return cmd;
  }
  if (verb == "forecast" && tokens.size() == 1) {
    cmd.kind = Command::Kind::kForecast;
    return cmd;
  }
  if (verb == "stats" && tokens.size() == 1) {
    cmd.kind = Command::Kind::kStats;
    return cmd;
  }
  if (verb == "quit" && tokens.size() == 1) {
    cmd.kind = Command::Kind::kQuit;
    return cmd;
  }
  cmd.error = "unknown command '" + verb + "'";
  return cmd;
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
      << " protocol_errors=" << stats.protocol_errors
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

std::optional<std::string> ValidateCommand(const Command& cmd,
                                           int64_t num_sensors,
                                           int64_t features) {
  switch (cmd.kind) {
    case Command::Kind::kObs:
      if (static_cast<int64_t>(cmd.values.size()) !=
          num_sensors * features) {
        return "obs needs " + std::to_string(num_sensors * features) +
               " values, got " + std::to_string(cmd.values.size());
      }
      return std::nullopt;
    case Command::Kind::kObsSensor:
      if (cmd.sensor < 0 || cmd.sensor >= num_sensors) {
        return "sensor " + std::to_string(cmd.sensor) +
               " out of range [0, " + std::to_string(num_sensors) + ")";
      }
      if (static_cast<int64_t>(cmd.values.size()) != features) {
        return "obs1 needs " + std::to_string(features) + " value(s), got " +
               std::to_string(cmd.values.size());
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

namespace {
/// Process-unique stream ids: two concurrent connections must never write
/// the same cache slot.
std::atomic<int64_t> g_next_stream_id{0};
}  // namespace

LineSession::LineSession(Server& server)
    : server_(server),
      state_(server.info().num_sensors, server.info().settings.history,
             server.info().num_features),
      stream_id_(g_next_stream_id.fetch_add(1)) {}

std::optional<std::string> LineSession::Handle(const std::string& line,
                                               bool* quit) {
  const ServingInfo& info = server_.info();
  Command cmd = ParseCommand(line);
  if (cmd.kind == Command::Kind::kInvalid) {
    if (cmd.error.empty()) return std::nullopt;  // blank/comment
    ++protocol_errors_;
    return FormatErrorResponse(cmd.error);
  }
  if (auto invalid =
          ValidateCommand(cmd, state_.num_sensors(), state_.features())) {
    ++protocol_errors_;
    return FormatErrorResponse(*invalid);
  }
  switch (cmd.kind) {
    case Command::Kind::kObs:
      state_.Push(cmd.values);
      return "ok";
    case Command::Kind::kObsSensor:
      state_.PushSensor(cmd.sensor, cmd.values.data());
      return "ok";
    case Command::Kind::kForecast: {
      if (!state_.ready()) {
        return "forecast ok=0 degraded=0 err=warming_up_have_" +
               std::to_string(state_.min_filled()) + "_of_" +
               std::to_string(state_.history());
      }
      Tensor window = state_.Window().Reshape(
          {state_.num_sensors(), state_.history(), state_.features()});
      // Stream-tagged submit: consecutive forecasts from this connection
      // advance one observation at a time, the exact shape the stream
      // cache reuses. Falls back transparently when the cache is off.
      Response resp =
          server_.Submit(std::move(window), stream_id_, state_.anchor())
              .get();
      return FormatForecastResponse(resp, info.num_sensors,
                                    info.settings.horizon,
                                    info.num_features);
    }
    case Command::Kind::kStats: {
      ServerStats stats = server_.Stats();
      stats.protocol_errors = protocol_errors_;
      return FormatStatsResponse(stats);
    }
    case Command::Kind::kQuit:
      *quit = true;
      return "bye";
    case Command::Kind::kInvalid:
      break;  // handled above
  }
  return std::nullopt;
}

}  // namespace serve
}  // namespace stwa
