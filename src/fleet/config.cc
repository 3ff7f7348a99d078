#include "fleet/config.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"

namespace stwa {
namespace fleet {
namespace {

int64_t ParseInt(const std::string& value, const std::string& line) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  STWA_CHECK(end != nullptr && *end == '\0' && !value.empty() &&
                 errno != ERANGE,
             "fleet config: '", value, "' is not an integer in line '",
             line, "'");
  return static_cast<int64_t>(v);
}

/// An int-typed field: a value outside int is refused, not narrowed.
int ParseIntRange(const std::string& value, const std::string& line) {
  const int64_t v = ParseInt(value, line);
  STWA_CHECK(v >= std::numeric_limits<int>::min() &&
                 v <= std::numeric_limits<int>::max(),
             "fleet config: '", value, "' is out of range in line '", line,
             "'");
  return static_cast<int>(v);
}

/// Quota rates and bursts: finite and non-negative (a NaN or negative
/// value would otherwise admit every request).
double ParseRate(const std::string& value, const std::string& line) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  STWA_CHECK(end != nullptr && *end == '\0' && !value.empty() &&
                 std::isfinite(v) && v >= 0.0,
             "fleet config: '", value,
             "' is not a finite non-negative number in line '", line, "'");
  return v;
}

/// Splits "key=value"; throws when there is no '='.
std::pair<std::string, std::string> SplitOption(const std::string& token,
                                                const std::string& line) {
  const size_t eq = token.find('=');
  STWA_CHECK(eq != std::string::npos && eq > 0,
             "fleet config: expected key=value, got '", token,
             "' in line '", line, "'");
  return {token.substr(0, eq), token.substr(eq + 1)};
}

FleetProfileConfig ParseProfileLine(const std::vector<std::string>& tokens,
                                    const std::string& line) {
  STWA_CHECK(tokens.size() >= 3,
             "fleet config: profile needs a name and ckpt=..., line '",
             line, "'");
  FleetProfileConfig profile;
  profile.name = tokens[1];
  for (size_t i = 2; i < tokens.size(); ++i) {
    const auto [key, value] = SplitOption(tokens[i], line);
    if (key == "ckpt") {
      profile.checkpoint = value;
    } else if (key == "tiles") {
      profile.tiles = ParseInt(value, line);
    } else if (key == "shards") {
      profile.shards = ParseInt(value, line);
    } else if (key == "workers") {
      profile.workers = ParseIntRange(value, line);
    } else if (key == "max_batch") {
      profile.max_batch = ParseInt(value, line);
    } else if (key == "max_delay_us") {
      profile.max_delay_us = ParseInt(value, line);
    } else if (key == "capacity") {
      profile.capacity = ParseInt(value, line);
    } else if (key == "deadline_us") {
      profile.deadline_us = ParseInt(value, line);
    } else if (key == "precision") {
      profile.precision = simd::ParsePrecision(value);
    } else if (key == "serial_kernels") {
      profile.serial_kernels = ParseInt(value, line) != 0;
    } else {
      STWA_FAIL("fleet config: unknown profile option '", key,
                "' in line '", line, "'");
    }
  }
  STWA_CHECK(!profile.checkpoint.empty(),
             "fleet config: profile '", profile.name,
             "' needs ckpt=<path>, line '", line, "'");
  return profile;
}

TenantQuota ParseQuotaOptions(const std::vector<std::string>& tokens,
                              size_t first, const std::string& line) {
  TenantQuota quota;
  bool have_rate = false;
  for (size_t i = first; i < tokens.size(); ++i) {
    const auto [key, value] = SplitOption(tokens[i], line);
    if (key == "rate") {
      quota.rate = ParseRate(value, line);
      have_rate = true;
    } else if (key == "burst") {
      quota.burst = ParseRate(value, line);
    } else {
      STWA_FAIL("fleet config: unknown quota option '", key,
                "' in line '", line, "'");
    }
  }
  STWA_CHECK(have_rate, "fleet config: quota needs rate=..., line '", line,
             "'");
  if (quota.burst < 1.0 && quota.rate > 0.0) quota.burst = 1.0;
  return quota;
}

}  // namespace

FleetConfig ParseFleetConfig(const std::string& text) {
  FleetConfig config;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    const std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> tokens;
    {
      std::istringstream iss(line);
      std::string tok;
      while (iss >> tok) tokens.push_back(tok);
    }
    const std::string& directive = tokens[0];
    if (directive == "profile") {
      config.profiles.push_back(ParseProfileLine(tokens, line));
    } else if (directive == "quota") {
      STWA_CHECK(tokens.size() >= 3,
                 "fleet config: quota needs a tenant and rate=..., line '",
                 line, "'");
      config.quotas.emplace_back(tokens[1],
                                 ParseQuotaOptions(tokens, 2, line));
    } else if (directive == "default_quota") {
      config.default_quota = ParseQuotaOptions(tokens, 1, line);
    } else {
      STWA_FAIL("fleet config: unknown directive '", directive,
                "' in line '", line, "'");
    }
  }
  return config;
}

FleetConfig LoadFleetConfig(const std::string& path) {
  std::ifstream in(path);
  STWA_CHECK(in.good(), "cannot open fleet config '", path, "'");
  std::ostringstream text;
  text << in.rdbuf();
  return ParseFleetConfig(text.str());
}

}  // namespace fleet
}  // namespace stwa
