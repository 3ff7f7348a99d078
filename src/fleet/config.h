// Fleet node configuration file: one line per directive, `#` comments.
//
//   profile <name> ckpt=<path> [tiles=T] [shards=K] [workers=W]
//           [max_batch=B] [max_delay_us=D] [capacity=C] [deadline_us=D]
//           [precision=fp32|bf16|int8] [serial_kernels=0|1]
//   quota <tenant> rate=<tokens/s> [burst=<cap>]
//   default_quota rate=<tokens/s> [burst=<cap>]
//
// Unknown directives and unknown key=value options are errors (a typo
// silently serving defaults would be worse), and so are values that do
// not fit their field: integers beyond int64 (or int, for workers=) and
// NaN, infinite or negative rates and bursts. rate=0 means unlimited.
//
// max_delay_us bounds how long a one-shot request waits for batch
// companions (serve::BatchingOptions::max_delay). Fleet tile forecasts and
// protocol `forecast` lines are all stream requests, which never wait for
// it, so it does not affect them.

#ifndef STWA_FLEET_CONFIG_H_
#define STWA_FLEET_CONFIG_H_

#include <string>
#include <utility>
#include <vector>

#include "fleet/admission.h"
#include "fleet/profile.h"

namespace stwa {
namespace fleet {

/// Parsed fleet node configuration.
struct FleetConfig {
  std::vector<FleetProfileConfig> profiles;
  /// Quota for tenants without an explicit entry (default: unlimited).
  TenantQuota default_quota;
  /// Explicit per-tenant quotas, in file order.
  std::vector<std::pair<std::string, TenantQuota>> quotas;
};

/// Parses config text; throws stwa::Error with the offending line on any
/// syntax problem.
FleetConfig ParseFleetConfig(const std::string& text);

/// Reads and parses a config file.
FleetConfig LoadFleetConfig(const std::string& path);

}  // namespace fleet
}  // namespace stwa

#endif  // STWA_FLEET_CONFIG_H_
