// Synthetic PEMS-like traffic flow generator.
//
// The real PEMS03/04/07/08 datasets are not redistributable; this generator
// substitutes them with synthetic flows that reproduce the statistical
// structure the paper's argument rests on (see DESIGN.md §1):
//
//   * location-specific patterns — every road has its own daily profile;
//     some corridors have both morning and evening peaks, others only a
//     morning peak with a gradual afternoon decay (exactly the Figure 1
//     contrast), and sensors along a road share their road's profile with
//     small amplitude/lag jitter;
//   * time-varying patterns — weekday and weekend regimes differ, and
//     random incidents (capacity drops) perturb single roads for 30–120
//     minutes, rewarding temporal-aware parameter adaptation;
//   * spatial correlation — road-level AR(1) noise is shared by all sensors
//     of a road, on top of per-sensor noise;
//   * 5-minute sampling, one flow attribute (F = 1), like PEMS.

#ifndef STWA_DATA_TRAFFIC_GENERATOR_H_
#define STWA_DATA_TRAFFIC_GENERATOR_H_

#include <string>
#include <vector>

#include "data/dataset.h"

namespace stwa {
namespace data {

/// Configuration of the synthetic traffic generator.
struct GeneratorOptions {
  std::string name = "synthetic";
  int64_t num_roads = 4;
  int64_t sensors_per_road = 4;
  int64_t num_days = 14;
  int64_t steps_per_day = 288;  // 5-minute sampling
  uint64_t seed = 7;

  /// Std-dev of per-sensor observation noise (flow units).
  float noise_std = 8.0f;

  /// Probability that a given road has an incident on a given day.
  float incident_prob = 0.08f;

  /// Enable the weekday/weekend regime difference.
  bool weekend_effect = true;

  /// Planted network-wide regime shift: from `shift_step` on (when >= 0),
  /// every road's clean flow is multiplied by `shift_scale`, ramping in
  /// linearly over `shift_ramp_steps` (0 = a hard break). The shift is
  /// deterministic in the options — it draws nothing from the RNG stream,
  /// so enabling it changes no other byte of the output — and is exported
  /// in the ShiftSchedule, giving drift tests and the online-learning
  /// benches a queryable distribution change at a known timestamp.
  int64_t shift_step = -1;
  float shift_scale = 1.0f;
  int64_t shift_ramp_steps = 0;
};

/// One planted disruption in a generated dataset: the ground truth the
/// drift machinery is asked to find.
struct PlannedEvent {
  enum class Kind {
    /// A 30-120 minute capacity drop on a single road (sine window).
    kIncident,
    /// The options-planted network-wide level shift (open-ended).
    kRegimeShift,
  };
  Kind kind = Kind::kIncident;
  /// Affected road, or -1 for every road (regime shifts).
  int64_t road = -1;
  /// First perturbed step.
  int64_t start_step = 0;
  /// One past the last perturbed step (num_steps for an open-ended shift).
  int64_t end_step = 0;
  /// Peak multiplicative flow change, as |1 - factor| in [0, 1).
  float severity = 0.0f;
};

/// Seeded, queryable schedule of everything the generator planted.
/// Events are ordered by start_step; the same options always produce the
/// same schedule (it is derived from the same RNG draws as the data).
struct ShiftSchedule {
  std::vector<PlannedEvent> events;

  /// Start of the first event with start_step >= `step`, or -1.
  int64_t NextEventAfter(int64_t step) const;
};

/// Generates a synthetic dataset (values, graph, road labels, coords).
/// When `schedule` is non-null it receives the planted incident/shift
/// timeline for the generated data.
TrafficDataset GenerateTraffic(const GeneratorOptions& options,
                               ShiftSchedule* schedule);
TrafficDataset GenerateTraffic(const GeneratorOptions& options);

/// Day-of-week of a timestamp (0 = Monday ... 6 = Sunday; day 0 is Monday).
int DayOfWeek(int64_t step, int64_t steps_per_day);

/// True for Saturday/Sunday.
bool IsWeekend(int64_t step, int64_t steps_per_day);

// --- Paper dataset profiles --------------------------------------------
//
// Sensor counts keep the paper's relative ordering
// (PEMS07 > PEMS03 > PEMS04 > PEMS08; real N = 883/358/307/170) at roughly
// 1:10 scale so single-core CPU training stays tractable; durations keep
// the relative ordering of the paper's 4/3/2/2 months at a days scale.
// `scale` in [1, ...] multiplies sensor counts for larger runs.

GeneratorOptions Pems03Profile(int64_t scale = 1);
GeneratorOptions Pems04Profile(int64_t scale = 1);
GeneratorOptions Pems07Profile(int64_t scale = 1);
GeneratorOptions Pems08Profile(int64_t scale = 1);

}  // namespace data
}  // namespace stwa

#endif  // STWA_DATA_TRAFFIC_GENERATOR_H_
