#include "data/traffic_generator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace stwa {
namespace data {
namespace {

/// Gaussian bump centred at `center` hours with `width` hours std-dev.
float Bump(float hour, float center, float width) {
  const float d = (hour - center) / width;
  return std::exp(-0.5f * d * d);
}

/// Per-road daily profile parameters.
struct RoadProfile {
  float base_night;       // overnight flow level
  float day_level;        // midday plateau on top of night level
  float morning_amp;      // morning peak amplitude
  float morning_center;   // hours
  float morning_width;    // hours
  bool has_evening_peak;  // Figure 1: some corridors lack the PM spike
  float evening_amp;
  float evening_center;
  float evening_width;
  float afternoon_decay;  // without an evening peak, flow decays after noon
  float weekend_scale;    // overall weekend attenuation
  float weekend_center;   // weekend midday bump centre
};

RoadProfile DrawRoadProfile(Rng& rng) {
  RoadProfile p;
  p.base_night = rng.Uniform(20.0f, 45.0f);
  p.day_level = rng.Uniform(90.0f, 160.0f);
  p.morning_amp = rng.Uniform(120.0f, 240.0f);
  p.morning_center = rng.Uniform(7.3f, 9.0f);
  p.morning_width = rng.Uniform(0.9f, 1.6f);
  p.has_evening_peak = rng.Uniform() < 0.5f;
  p.evening_amp = rng.Uniform(100.0f, 220.0f);
  p.evening_center = rng.Uniform(16.5f, 18.5f);
  p.evening_width = rng.Uniform(1.0f, 1.9f);
  p.afternoon_decay = rng.Uniform(0.25f, 0.5f);
  p.weekend_scale = rng.Uniform(0.55f, 0.75f);
  p.weekend_center = rng.Uniform(12.5f, 15.0f);
  return p;
}

/// Clean (noise-free) flow of a road at `hour` of a weekday / weekend day.
float RoadFlow(const RoadProfile& p, float hour, bool weekend) {
  // Day plateau: smooth rise ~6h, fall ~21h.
  const float rise = 1.0f / (1.0f + std::exp(-(hour - 6.0f) * 1.8f));
  const float fall = 1.0f / (1.0f + std::exp((hour - 21.0f) * 1.6f));
  float flow = p.base_night + p.day_level * rise * fall;
  if (weekend) {
    // Weekends: flatter, later midday bump, suppressed commute peaks.
    flow = p.base_night +
           p.weekend_scale * p.day_level * rise * fall +
           0.35f * p.morning_amp * Bump(hour, p.weekend_center, 2.6f);
    return flow;
  }
  flow += p.morning_amp * Bump(hour, p.morning_center, p.morning_width);
  if (p.has_evening_peak) {
    flow += p.evening_amp * Bump(hour, p.evening_center, p.evening_width);
  } else if (hour > 12.0f) {
    // Gradual afternoon decrease (Figure 1, sensors 3/4).
    flow *= 1.0f - p.afternoon_decay *
                       std::min(1.0f, (hour - 12.0f) / 9.0f);
  }
  return flow;
}

/// One planted incident: a smooth capacity drop on a single road.
struct Incident {
  int64_t start_step;
  int64_t duration_steps;
  float severity;  // multiplicative flow drop at the centre, in (0, 1)
};

/// Multiplier of the options-planted regime shift at `step` (1 before the
/// shift and when disabled; options only, no RNG).
float ShiftFactor(const GeneratorOptions& options, int64_t step) {
  if (options.shift_step < 0 || step < options.shift_step) return 1.0f;
  if (options.shift_ramp_steps > 0 &&
      step < options.shift_step + options.shift_ramp_steps) {
    const float phase =
        static_cast<float>(step - options.shift_step) /
        static_cast<float>(options.shift_ramp_steps);
    return 1.0f + (options.shift_scale - 1.0f) * phase;
  }
  return options.shift_scale;
}

float IncidentFactor(const std::vector<Incident>& incidents, int64_t step) {
  float factor = 1.0f;
  for (const Incident& inc : incidents) {
    if (step < inc.start_step || step >= inc.start_step + inc.duration_steps) {
      continue;
    }
    // Smooth ramp in and out (sine window).
    const float phase = static_cast<float>(step - inc.start_step) /
                        static_cast<float>(inc.duration_steps);
    const float window = std::sin(phase * 3.14159265f);
    factor *= 1.0f - inc.severity * window;
  }
  return factor;
}

}  // namespace

int DayOfWeek(int64_t step, int64_t steps_per_day) {
  STWA_CHECK(steps_per_day > 0, "steps_per_day must be positive");
  return static_cast<int>((step / steps_per_day) % 7);
}

bool IsWeekend(int64_t step, int64_t steps_per_day) {
  const int dow = DayOfWeek(step, steps_per_day);
  return dow == 5 || dow == 6;
}

int64_t ShiftSchedule::NextEventAfter(int64_t step) const {
  int64_t next = -1;
  for (const PlannedEvent& e : events) {
    if (e.start_step >= step && (next < 0 || e.start_step < next)) {
      next = e.start_step;
    }
  }
  return next;
}

TrafficDataset GenerateTraffic(const GeneratorOptions& options) {
  return GenerateTraffic(options, nullptr);
}

TrafficDataset GenerateTraffic(const GeneratorOptions& options,
                               ShiftSchedule* schedule) {
  STWA_CHECK(options.num_roads > 0 && options.sensors_per_road > 0 &&
                 options.num_days > 0 && options.steps_per_day > 0,
             "invalid generator options");
  Rng rng(options.seed);
  const int64_t num_sensors = options.num_roads * options.sensors_per_road;
  const int64_t num_steps = options.num_days * options.steps_per_day;

  TrafficDataset dataset;
  dataset.name = options.name;
  dataset.steps_per_day = options.steps_per_day;
  dataset.graph = graph::BuildCorridorGraph(
      options.num_roads, options.sensors_per_road, rng,
      &dataset.road_of_sensor);
  dataset.values = Tensor(Shape{num_sensors, num_steps, 1});

  // Road profiles and incident schedules.
  std::vector<RoadProfile> profiles;
  std::vector<std::vector<Incident>> incidents(options.num_roads);
  profiles.reserve(options.num_roads);
  for (int64_t r = 0; r < options.num_roads; ++r) {
    profiles.push_back(DrawRoadProfile(rng));
    for (int64_t day = 0; day < options.num_days; ++day) {
      if (rng.Uniform() < options.incident_prob) {
        Incident inc;
        const int64_t day_start = day * options.steps_per_day;
        inc.start_step =
            day_start + rng.UniformInt(options.steps_per_day - 30);
        // 30–120 minutes at 5-minute sampling.
        inc.duration_steps = 6 + rng.UniformInt(19);
        inc.severity = rng.Uniform(0.35f, 0.65f);
        incidents[r].push_back(inc);
      }
    }
  }
  if (schedule != nullptr) {
    schedule->events.clear();
    for (int64_t r = 0; r < options.num_roads; ++r) {
      for (const Incident& inc : incidents[r]) {
        PlannedEvent event;
        event.kind = PlannedEvent::Kind::kIncident;
        event.road = r;
        event.start_step = inc.start_step;
        event.end_step = inc.start_step + inc.duration_steps;
        event.severity = inc.severity;
        schedule->events.push_back(event);
      }
    }
    if (options.shift_step >= 0 && options.shift_step < num_steps) {
      PlannedEvent event;
      event.kind = PlannedEvent::Kind::kRegimeShift;
      event.road = -1;
      event.start_step = options.shift_step;
      event.end_step = num_steps;
      event.severity = std::abs(1.0f - options.shift_scale);
      schedule->events.push_back(event);
    }
    std::sort(schedule->events.begin(), schedule->events.end(),
              [](const PlannedEvent& a, const PlannedEvent& b) {
                return a.start_step < b.start_step;
              });
  }

  // Per-sensor modifiers.
  std::vector<float> amp(num_sensors);
  std::vector<float> lag_steps(num_sensors);
  dataset.coords.resize(num_sensors);
  for (int64_t i = 0; i < num_sensors; ++i) {
    const int road = dataset.road_of_sensor[i];
    const int64_t pos = i % options.sensors_per_road;
    amp[i] = rng.Uniform(0.85f, 1.15f);
    // Downstream sensors see the wave slightly later (0.2–0.6 steps per
    // hop, i.e. 1–3 minutes at 5-minute sampling).
    lag_steps[i] = static_cast<float>(pos) * rng.Uniform(0.2f, 0.6f);
    // Map layout: roads are parallel lines, sensors spaced along them.
    dataset.coords[i] = {static_cast<float>(pos) * 1.0f,
                         static_cast<float>(road) * 1.0f +
                             rng.Uniform(-0.1f, 0.1f)};
  }

  // Road-level AR(1) noise shared by the road's sensors.
  const float rho = 0.92f;
  std::vector<float> road_noise(options.num_roads, 0.0f);
  std::vector<Rng> sensor_rng;
  sensor_rng.reserve(num_sensors);
  for (int64_t i = 0; i < num_sensors; ++i) sensor_rng.push_back(rng.Fork());

  const float steps_per_hour =
      static_cast<float>(options.steps_per_day) / 24.0f;
  for (int64_t t = 0; t < num_steps; ++t) {
    const bool weekend =
        options.weekend_effect && IsWeekend(t, options.steps_per_day);
    for (int64_t r = 0; r < options.num_roads; ++r) {
      road_noise[r] = rho * road_noise[r] +
                      rng.Normal(0.0f, options.noise_std * 0.6f);
    }
    for (int64_t i = 0; i < num_sensors; ++i) {
      const int road = dataset.road_of_sensor[i];
      const float lagged_step =
          static_cast<float>(t % options.steps_per_day) - lag_steps[i];
      const float hour = lagged_step / steps_per_hour;
      float flow = amp[i] * RoadFlow(profiles[road], hour, weekend);
      flow *= IncidentFactor(incidents[road], t);
      flow *= ShiftFactor(options, t);
      flow += road_noise[road] +
              sensor_rng[i].Normal(0.0f, options.noise_std);
      dataset.values({i, t, 0}) = std::max(0.0f, flow);
    }
  }
  return dataset;
}

namespace {

GeneratorOptions Profile(const std::string& name, int64_t roads,
                         int64_t sensors_per_road, int64_t days,
                         uint64_t seed, int64_t scale) {
  GeneratorOptions o;
  o.name = name;
  o.num_roads = roads * scale;
  o.sensors_per_road = sensors_per_road;
  o.num_days = days;
  o.seed = seed;
  return o;
}

}  // namespace

GeneratorOptions Pems03Profile(int64_t scale) {
  // Paper: N=358, 3 months.
  return Profile("PEMS03-like", 6, 6, 12, 1003, scale);
}

GeneratorOptions Pems04Profile(int64_t scale) {
  // Paper: N=307, 2 months.
  return Profile("PEMS04-like", 5, 6, 10, 1004, scale);
}

GeneratorOptions Pems07Profile(int64_t scale) {
  // Paper: N=883, 4 months (largest network).
  return Profile("PEMS07-like", 8, 11, 14, 1007, scale);
}

GeneratorOptions Pems08Profile(int64_t scale) {
  // Paper: N=170, 2 months (smallest network).
  return Profile("PEMS08-like", 4, 4, 10, 1008, scale);
}

}  // namespace data
}  // namespace stwa
