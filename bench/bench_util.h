// Shared plumbing for the per-table/figure bench binaries.
//
// Every table binary trains scaled-down models on the synthetic PEMS-like
// datasets and prints rows in the paper's layout. The scale knob:
//   STWA_BENCH_SCALE=fast   (default) minutes-long run, small N / few epochs
//   STWA_BENCH_SCALE=full   larger datasets and longer training
// Absolute numbers differ from the paper (CPU, synthetic data); the bench
// output is about the *shape*: which model wins, by roughly what factor,
// where the crossovers fall. EXPERIMENTS.md records paper-vs-measured.

#ifndef STWA_BENCH_BENCH_UTIL_H_
#define STWA_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "baselines/registry.h"
#include "data/traffic_generator.h"
#include "train/table.h"
#include "train/trainer.h"

namespace stwa {
namespace bench {

/// Bench scale selected via STWA_BENCH_SCALE.
struct BenchScale {
  bool fast = true;
  int64_t steps_per_day = 144;  // 10-minute sampling in fast mode
  int64_t num_days = 14;
  int epochs = 40;
  int64_t batch_size = 8;
  int64_t stride = 4;
  int64_t eval_stride = 6;
  int64_t d_model = 16;
  int64_t predictor_hidden = 64;
  int64_t max_batches_per_epoch = 0;
  /// Worker threads for the execution runtime; resolved from
  /// STWA_NUM_THREADS / hardware_concurrency (runtime::DefaultNumThreads).
  int num_threads = 1;
};

/// Reads STWA_BENCH_SCALE and returns the corresponding scale.
BenchScale GetScale();

/// The four paper datasets at bench scale; sensor counts preserve the
/// paper's ordering PEMS07 > PEMS03 > PEMS04 > PEMS08.
enum class PaperDataset { kPems03, kPems04, kPems07, kPems08 };

/// Paper sensor count of a dataset (for the memory model's OOM column).
int64_t PaperSensorCount(PaperDataset dataset);

/// Display name ("PEMS03-like" etc.).
std::string DatasetName(PaperDataset dataset);

/// Generates the dataset at the given scale.
data::TrafficDataset MakeDataset(PaperDataset dataset,
                                 const BenchScale& scale);

/// Default model settings for a scale and forecasting setting.
baselines::ModelSettings MakeSettings(const BenchScale& scale,
                                      int64_t history, int64_t horizon);

/// Training config for a scale.
train::TrainConfig MakeTrainConfig(const BenchScale& scale);

/// Trains `model_name` on `dataset` and returns the result.
train::TrainResult RunModel(const std::string& model_name,
                            const data::TrafficDataset& dataset,
                            const baselines::ModelSettings& settings,
                            const train::TrainConfig& config);

/// Formats a metric triple as three table cells.
std::vector<std::string> MetricCells(const metrics::ForecastMetrics& m);

/// Prints the execution-runtime configuration (thread count, buffer-pool
/// state and SIMD ISA) so every bench records what it ran with.
void ReportRuntime();

/// Ensures ./bench_out exists and returns the path of `filename` in it.
std::string BenchOutPath(const std::string& filename);

}  // namespace bench
}  // namespace stwa

#endif  // STWA_BENCH_BENCH_UTIL_H_
