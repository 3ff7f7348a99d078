// The shared demo trainer behind every serving CLI's --train-demo mode.
//
// stwa_fleet and stwa_online both need the same thing: a tiny
// quickstart-like dataset, a small ST-WA trained on it for a couple of
// epochs, and a serving checkpoint written out — self-contained
// checkpoint production for smoke tests and CI. This header is the single
// definition of that recipe; the CLIs only vary the dataset name, seed,
// network size and (for online demos) the planted regime shift.

#ifndef STWA_TOOLS_DEMO_TRAIN_H_
#define STWA_TOOLS_DEMO_TRAIN_H_

#include <string>

#include "baselines/registry.h"
#include "data/traffic_generator.h"
#include "train/trainer.h"

namespace stwa {
namespace tools {

/// Per-CLI knobs of the demo dataset. Defaults give the 4-sensor demo
/// (4 days x 96 steps, seed 17) whose checkpoint is byte-identical to
/// stwa_fleet's cityA.bin.
struct DemoTrainOptions {
  std::string dataset_name = "serve-demo";
  int64_t num_roads = 2;
  int64_t sensors_per_road = 2;
  uint64_t seed = 17;
  /// Planted regime shift forwarded to the generator (off by default;
  /// RNG-free, so enabling it leaves pre-shift rows unchanged).
  int64_t shift_step = -1;
  float shift_scale = 1.0f;
  int64_t shift_ramp_steps = 0;
};

/// Generator options of the demo dataset (4 days at 96 steps/day).
data::GeneratorOptions DemoGeneratorOptions(
    const DemoTrainOptions& options = DemoTrainOptions());

/// The demo ST-WA: paper T=12 lookback and U=12 horizon at toy widths,
/// small enough that two epochs train in seconds.
baselines::ModelSettings DemoModelSettings();

/// Trains the demo ST-WA on `dataset` and writes a serving checkpoint to
/// `path` (progress lines on stderr name `display_name`). Returns the
/// training result.
train::TrainResult TrainDemoCheckpoint(const std::string& display_name,
                                       const data::TrafficDataset& dataset,
                                       int epochs, const std::string& path);

}  // namespace tools
}  // namespace stwa

#endif  // STWA_TOOLS_DEMO_TRAIN_H_
