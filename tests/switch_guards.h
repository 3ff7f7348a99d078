// Scoped overrides of the in-process execution switches for tests. Each
// guard sets its switch for one scope and restores the previous value even
// when an assertion bails out early, so no test leaks an override into the
// next one.

#ifndef STWA_TESTS_SWITCH_GUARDS_H_
#define STWA_TESTS_SWITCH_GUARDS_H_

#include "ir/plan.h"
#include "serve/stream_cache.h"

namespace stwa {

template <bool (*Get)(), void (*Set)(bool)>
class ScopedSwitch {
 public:
  explicit ScopedSwitch(bool enabled) : saved_(Get()) { Set(enabled); }
  ~ScopedSwitch() { Set(saved_); }
  ScopedSwitch(const ScopedSwitch&) = delete;
  ScopedSwitch& operator=(const ScopedSwitch&) = delete;

 private:
  bool saved_;
};

using PlanModeGuard = ScopedSwitch<ir::PlanModeEnabled, ir::SetPlanMode>;
using CacheModeGuard =
    ScopedSwitch<serve::StreamCacheEnabled, serve::SetStreamCacheMode>;

}  // namespace stwa

#endif  // STWA_TESTS_SWITCH_GUARDS_H_
