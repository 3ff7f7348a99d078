// The serving line protocol, spoken by stwa_fleet over stdin/stdout or
// TCP. One request per line, whitespace-separated; blank lines and lines
// starting with '#' are skipped without a response.
//
// Profile-scoped commands (first token routes to a registry profile):
//   <profile> obs <tile> <v...>     push one timestep for every sensor of
//                                   a tile (num_sensors*features values)
//                                   -> "ok"
//   <profile> obs1 <g> <v...>       push one observation for global
//                                   sensor g (features values) -> "ok"
//   <profile> forecast <tile>       -> "forecast ok=..." (serve/protocol.h)
//                                   or "throttled tenant=... profile=..."
//   <profile> stats                 -> "stats ..." (serve/protocol.h) plus
//                                   generation/shard fields
// Node commands:
//   profiles                        -> one line listing every profile
//   tenant <name>                   quota identity for this connection;
//                                   at most kMaxProtocolTenants names
//                                   beyond the configured quota tenants
//                                   (and "default"), else "err ..."
//   reload <profile> <path>         hot-swap a profile's checkpoint; the
//                                   path must resolve (after ".." and
//                                   symlinks) into the directory of the
//                                   profile's ckpt= file, else "reload
//                                   ok=0" and the file is never opened
//   stats                           -> "fleetstats ..." node counters
//   quit                            -> "bye"
//
// Malformed lines — unknown verbs, out-of-range tiles or sensors, wrong
// value counts, unparsable or non-finite numbers — get an "err ..."
// response and are counted in the session and in the node (fleetstats
// protocol_errors=); they never reach a shard worker and never move a
// tile's window. Throttled forecasts have their own first token so
// token-oriented clients can split admits from rejections. A client gets
// a private stream by using its own tile; tile windows outlive
// connections and hot reloads.

#ifndef STWA_FLEET_PROTOCOL_H_
#define STWA_FLEET_PROTOCOL_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>

#include "fleet/admission.h"
#include "fleet/config.h"
#include "fleet/registry.h"
#include "metrics/latency.h"

namespace stwa {
namespace fleet {

/// Distinct tenant names `tenant` lines may introduce, node-wide, besides
/// "default" and the tenants named in the config. Each accepted name costs
/// a token bucket and a latency histogram for the node's lifetime.
inline constexpr int64_t kMaxProtocolTenants = 256;

/// Node-wide serving counters (across connections and profiles).
struct FleetNodeStats {
  int64_t admitted = 0;
  int64_t throttled = 0;
  int64_t protocol_errors = 0;
  /// Completed-forecast latency keyed by tenant.
  metrics::LabeledHistograms per_tenant;
};

/// One fleet serving node: the profile registry plus admission control
/// and node-level stats. Thread-safe; one instance per process, shared by
/// every connection's FleetLineSession.
class FleetNode {
 public:
  /// Loads every configured profile (concurrently) and installs the
  /// tenant quotas.
  explicit FleetNode(const FleetConfig& config);

  ModelRegistry& registry() { return registry_; }
  AdmissionController& admission() { return admission_; }

  /// Records one completed forecast's end-to-end latency.
  void RecordForecast(const std::string& tenant, double micros);

  /// True when `tenant` may be used: it is "default", configured, already
  /// accepted, or a new name within kMaxProtocolTenants (then remembered).
  bool AcceptTenant(const std::string& tenant);

  /// Counts one malformed client line.
  void CountProtocolError();

  FleetNodeStats Stats() const;

 private:
  ModelRegistry registry_;
  AdmissionController admission_;
  mutable std::mutex stats_mutex_;
  metrics::LabeledHistograms per_tenant_;
  int64_t protocol_errors_ = 0;
  /// Accepted tenant names (guarded by stats_mutex_); the first
  /// `configured_tenants_` are "default" and the config's quota tenants.
  std::unordered_set<std::string> tenants_;
  size_t configured_tenants_ = 0;
};

/// Per-connection command loop state (tenant identity + error counter).
/// Not thread-safe; transports create one per connection.
class FleetLineSession {
 public:
  explicit FleetLineSession(FleetNode& node,
                            std::string tenant = "default");

  /// Executes one protocol line. Returns the response line, or nullopt
  /// for blank/comment lines. Sets *quit on "quit".
  std::optional<std::string> Handle(const std::string& line, bool* quit);

  const std::string& tenant() const { return tenant_; }
  int64_t protocol_errors() const { return protocol_errors_; }

 private:
  /// Counts (session + node) and formats a protocol error.
  std::string Error(const std::string& reason);

  FleetNode& node_;
  std::string tenant_;
  int64_t protocol_errors_ = 0;
};

}  // namespace fleet
}  // namespace stwa

#endif  // STWA_FLEET_PROTOCOL_H_
