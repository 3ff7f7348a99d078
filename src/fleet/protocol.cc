#include "fleet/protocol.h"

#include <filesystem>
#include <sstream>
#include <system_error>
#include <vector>

#include "common/stopwatch.h"
#include "serve/protocol.h"

namespace stwa {
namespace fleet {
namespace {

// Reload sandbox: a client may only name a file in the directory of the
// profile's configured checkpoint. Both paths are resolved first (".."
// and symlinks included), so neither can step outside that directory.
bool InCheckpointDir(const std::string& path, const std::string& configured) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path dir = fs::weakly_canonical(configured, ec).parent_path();
  if (ec) return false;
  const fs::path target = fs::weakly_canonical(path, ec);
  return !ec && target.parent_path() == dir;
}

}  // namespace

FleetNode::FleetNode(const FleetConfig& config)
    : registry_(config.profiles), admission_(config.default_quota) {
  tenants_.insert("default");
  for (const auto& [tenant, quota] : config.quotas) {
    admission_.SetQuota(tenant, quota);
    tenants_.insert(tenant);
  }
  configured_tenants_ = tenants_.size();
}

bool FleetNode::AcceptTenant(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (tenants_.count(tenant) > 0) return true;
  if (tenants_.size() - configured_tenants_ >=
      static_cast<size_t>(kMaxProtocolTenants)) {
    return false;
  }
  tenants_.insert(tenant);
  return true;
}

void FleetNode::RecordForecast(const std::string& tenant, double micros) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  per_tenant_.Record(tenant, micros);
}

void FleetNode::CountProtocolError() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++protocol_errors_;
}

FleetNodeStats FleetNode::Stats() const {
  FleetNodeStats stats;
  stats.admitted = admission_.admitted();
  stats.throttled = admission_.throttled();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats.protocol_errors = protocol_errors_;
  stats.per_tenant = per_tenant_;
  return stats;
}

FleetLineSession::FleetLineSession(FleetNode& node, std::string tenant)
    : node_(node), tenant_(std::move(tenant)) {}

std::string FleetLineSession::Error(const std::string& reason) {
  ++protocol_errors_;
  node_.CountProtocolError();
  return serve::FormatErrorResponse(reason);
}

std::optional<std::string> FleetLineSession::Handle(const std::string& line,
                                                    bool* quit) {
  std::vector<std::string> tokens;
  {
    std::istringstream iss(line);
    std::string tok;
    while (iss >> tok) tokens.push_back(tok);
  }
  if (tokens.empty() || tokens[0][0] == '#') return std::nullopt;
  const std::string& head = tokens[0];

  // --- node commands -----------------------------------------------------
  if (head == "quit" && tokens.size() == 1) {
    *quit = true;
    return "bye";
  }
  if (head == "tenant") {
    if (tokens.size() != 2) return Error("usage: tenant <name>");
    if (!node_.AcceptTenant(tokens[1])) {
      return Error("too many tenants: at most " +
                   std::to_string(kMaxProtocolTenants) +
                   " names beyond the configured ones");
    }
    tenant_ = tokens[1];
    return "ok tenant=" + tenant_;
  }
  if (head == "profiles" && tokens.size() == 1) {
    std::ostringstream oss;
    oss << "profiles";
    for (const auto& [name, profile] : node_.registry().entries()) {
      const serve::ServingInfo info = profile->Info();
      oss << ' ' << name << ":gen=" << profile->Version()
          << ":ckpt_version=" << info.ckpt_version
          << ":sensors=" << profile->router().global_sensors()
          << ":shards=" << profile->router().shards()
          << ":precision=" << simd::PrecisionName(
                 profile->config().precision);
    }
    return oss.str();
  }
  if (head == "reload") {
    if (tokens.size() != 3) return Error("usage: reload <profile> <path>");
    ModelProfile* profile = node_.registry().Find(tokens[1]);
    if (profile == nullptr) return Error("unknown profile '" + tokens[1] + "'");
    // A refused path fails softly, like a bad file below.
    if (!InCheckpointDir(tokens[2], profile->config().checkpoint)) {
      return "reload ok=0 profile=" + tokens[1] + " " +
             serve::FormatErrorResponse(
                 "reload path must be in the directory of the profile's "
                 "ckpt= file");
    }
    try {
      const ReloadResult r = profile->Reload(tokens[2]);
      std::ostringstream oss;
      oss << "reload ok=1 profile=" << tokens[1] << " version=" << r.version
          << " ckpt_version=" << r.ckpt_version
          << " prepare_us=" << serve::FormatMicros(r.prepare_us)
          << " swap_us=" << serve::FormatMicros(r.swap_us)
          << " drain_us=" << serve::FormatMicros(r.drain_us);
      return oss.str();
    } catch (const std::exception& e) {
      // A failed reload is not a protocol error: the line was well-formed
      // and the old generation keeps serving.
      return "reload ok=0 profile=" + tokens[1] + " " +
             serve::FormatErrorResponse(e.what());
    }
  }
  if (head == "stats" && tokens.size() == 1) {
    const FleetNodeStats stats = node_.Stats();
    std::ostringstream oss;
    oss << "fleetstats admitted=" << stats.admitted
        << " throttled=" << stats.throttled
        << " protocol_errors=" << stats.protocol_errors
        << " profiles=" << node_.registry().size();
    for (const auto& [tenant, hist] : stats.per_tenant.entries()) {
      oss << " t." << tenant << ".count=" << hist.count() << " t." << tenant
          << ".p50_us=" << serve::FormatMicros(hist.p50()) << " t." << tenant
          << ".p99_us=" << serve::FormatMicros(hist.p99());
    }
    return oss.str();
  }

  // --- profile-scoped commands -------------------------------------------
  ModelProfile* profile = node_.registry().Find(head);
  if (profile == nullptr) {
    return Error("unknown command or profile '" + head + "'");
  }
  if (tokens.size() < 2) {
    return Error("usage: " + head + " obs|obs1|forecast|stats ...");
  }
  const std::string& verb = tokens[1];

  if (verb == "obs") {
    int64_t tile;
    if (tokens.size() < 4 || !serve::ParseIntToken(tokens[2], &tile)) {
      return Error("usage: " + head + " obs <tile> <value...>");
    }
    if (tile < 0 || tile >= profile->router().tiles()) {
      return Error("tile " + std::to_string(tile) + " out of range [0, " +
                   std::to_string(profile->router().tiles()) + ")");
    }
    std::vector<float> values;
    std::string err;
    if (!serve::ParseValueTokens(tokens, 3, &values, &err)) return Error(err);
    const int64_t expected = profile->num_sensors() * profile->features();
    if (static_cast<int64_t>(values.size()) != expected) {
      return Error("obs needs " + std::to_string(expected) +
                   " values, got " + std::to_string(values.size()));
    }
    profile->PushTile(tile, values);
    return "ok";
  }

  if (verb == "obs1") {
    int64_t g;
    if (tokens.size() < 4 || !serve::ParseIntToken(tokens[2], &g)) {
      return Error("usage: " + head + " obs1 <sensor> <value...>");
    }
    if (g < 0 || g >= profile->router().global_sensors()) {
      return Error("sensor " + std::to_string(g) + " out of range [0, " +
                   std::to_string(profile->router().global_sensors()) + ")");
    }
    std::vector<float> values;
    std::string err;
    if (!serve::ParseValueTokens(tokens, 3, &values, &err)) return Error(err);
    if (static_cast<int64_t>(values.size()) != profile->features()) {
      return Error("obs1 needs " + std::to_string(profile->features()) +
                   " value(s), got " + std::to_string(values.size()));
    }
    profile->PushSensor(g, values.data());
    return "ok";
  }

  if (verb == "forecast") {
    int64_t tile;
    if (tokens.size() != 3 || !serve::ParseIntToken(tokens[2], &tile)) {
      return Error("usage: " + head + " forecast <tile>");
    }
    if (tile < 0 || tile >= profile->router().tiles()) {
      return Error("tile " + std::to_string(tile) + " out of range [0, " +
                   std::to_string(profile->router().tiles()) + ")");
    }
    if (!node_.admission().TryAdmit(tenant_)) {
      return "throttled tenant=" + tenant_ + " profile=" + head;
    }
    if (!profile->TileReady(tile)) {
      return "forecast ok=0 degraded=0 err=warming_up_have_" +
             std::to_string(profile->TileMinFilled(tile)) + "_of_" +
             std::to_string(profile->history());
    }
    Stopwatch sw;
    serve::Response resp = profile->ForecastTile(tile).get();
    if (resp.ok) {
      node_.RecordForecast(tenant_, sw.ElapsedSeconds() * 1e6);
    }
    const serve::ServingInfo info = profile->Info();
    return serve::FormatForecastResponse(resp, info.num_sensors,
                                         info.settings.horizon,
                                         info.num_features);
  }

  if (verb == "stats" && tokens.size() == 2) {
    const serve::ServerStats stats = profile->Stats();
    const serve::ServingInfo info = profile->Info();
    std::ostringstream oss;
    oss << serve::FormatStatsResponse(stats)
        << " gen=" << profile->Version()
        << " ckpt_version=" << info.ckpt_version
        << " shards=" << profile->router().shards();
    const std::vector<serve::ServerStats> shards = profile->ShardStats();
    for (size_t k = 0; k < shards.size(); ++k) {
      oss << " s" << k << ".completed=" << shards[k].completed;
    }
    return oss.str();
  }

  return Error("unknown command '" + verb + "' for profile '" + head + "'");
}

}  // namespace fleet
}  // namespace stwa
