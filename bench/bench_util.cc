#include "bench_util.h"

#include <sys/stat.h>

#include <iostream>

#include "common/check.h"
#include "common/string_util.h"
#include "runtime/parallel.h"
#include "simd/simd.h"
#include "tensor/buffer_pool.h"

namespace stwa {
namespace bench {

BenchScale GetScale() {
  BenchScale s;
  const std::string mode = GetEnvOr("STWA_BENCH_SCALE", "fast");
  if (mode == "full") {
    s.fast = false;
    s.steps_per_day = 288;
    s.num_days = 21;
    s.epochs = 30;
    s.batch_size = 16;
    s.stride = 1;
    s.eval_stride = 2;
    s.d_model = 32;
    s.predictor_hidden = 256;
    s.max_batches_per_epoch = 0;
  } else if (mode != "fast") {
    std::cerr << "unknown STWA_BENCH_SCALE='" << mode
              << "', using fast\n";
  }
  s.num_threads = runtime::DefaultNumThreads();
  return s;
}

int64_t PaperSensorCount(PaperDataset dataset) {
  switch (dataset) {
    case PaperDataset::kPems03:
      return 358;
    case PaperDataset::kPems04:
      return 307;
    case PaperDataset::kPems07:
      return 883;
    case PaperDataset::kPems08:
      return 170;
  }
  STWA_FAIL("bad dataset");
}

std::string DatasetName(PaperDataset dataset) {
  switch (dataset) {
    case PaperDataset::kPems03:
      return "PEMS03-like";
    case PaperDataset::kPems04:
      return "PEMS04-like";
    case PaperDataset::kPems07:
      return "PEMS07-like";
    case PaperDataset::kPems08:
      return "PEMS08-like";
  }
  STWA_FAIL("bad dataset");
}

data::TrafficDataset MakeDataset(PaperDataset dataset,
                                 const BenchScale& scale) {
  data::GeneratorOptions o;
  o.steps_per_day = scale.steps_per_day;
  o.num_days = scale.num_days;
  switch (dataset) {
    case PaperDataset::kPems03:
      o.name = "PEMS03-like";
      o.num_roads = scale.fast ? 6 : 10;
      o.sensors_per_road = scale.fast ? 3 : 6;
      o.seed = 1003;
      break;
    case PaperDataset::kPems04:
      o.name = "PEMS04-like";
      o.num_roads = 5;
      o.sensors_per_road = scale.fast ? 3 : 6;
      o.seed = 1004;
      break;
    case PaperDataset::kPems07:
      o.name = "PEMS07-like";
      o.num_roads = scale.fast ? 8 : 11;
      o.sensors_per_road = scale.fast ? 3 : 8;
      o.seed = 1007;
      break;
    case PaperDataset::kPems08:
      o.name = "PEMS08-like";
      o.num_roads = 4;
      o.sensors_per_road = scale.fast ? 2 : 4;
      o.seed = 1008;
      break;
  }
  return data::GenerateTraffic(o);
}

baselines::ModelSettings MakeSettings(const BenchScale& scale,
                                      int64_t history, int64_t horizon) {
  baselines::ModelSettings s;
  s.history = history;
  s.horizon = horizon;
  s.d_model = scale.d_model;
  s.predictor_hidden = scale.predictor_hidden;
  s.num_layers = 2;
  s.latent_dim = scale.fast ? 8 : 16;
  // Paper defaults: H = 12 uses 3 layers with windows 3/2/2; H = 72 uses
  // windows 6/6/2; other H get a divisor chain.
  if (history == 12) {
    s.window_sizes = {3, 2, 2};
  } else if (history == 36) {
    s.window_sizes = {3, 3, 2};
  } else if (history == 72) {
    s.window_sizes = {6, 6, 2};
  } else if (history == 120) {
    s.window_sizes = {6, 5, 2};
  } else if (history % 4 == 0) {
    s.window_sizes = {2, 2};
  } else {
    s.window_sizes = {history};
  }
  return s;
}

train::TrainConfig MakeTrainConfig(const BenchScale& scale) {
  train::TrainConfig c;
  c.epochs = scale.epochs;
  c.batch_size = scale.batch_size;
  c.stride = scale.stride;
  c.eval_stride = scale.eval_stride;
  c.patience = 15;
  c.max_batches_per_epoch = scale.max_batches_per_epoch;
  c.num_threads = scale.num_threads;
  return c;
}

train::TrainResult RunModel(const std::string& model_name,
                            const data::TrafficDataset& dataset,
                            const baselines::ModelSettings& settings,
                            const train::TrainConfig& config) {
  auto model = baselines::MakeModel(model_name, dataset, settings);
  train::Trainer trainer(dataset, settings.history, settings.horizon,
                         config);
  return trainer.Fit(*model);
}

std::vector<std::string> MetricCells(const metrics::ForecastMetrics& m) {
  return {FormatFloat(m.mae, 2), FormatFloat(m.mape, 2),
          FormatFloat(m.rmse, 2)};
}

void ReportRuntime() {
  const std::string env = GetEnvOr("STWA_NUM_THREADS", "");
  std::cout << "[runtime] threads=" << runtime::NumThreads()
            << (env.empty() ? " (hardware default)"
                            : " (STWA_NUM_THREADS=" + env + ")")
            << " pool=" << (pool::Enabled() ? "on" : "off")
            << " simd=" << simd::IsaName() << "\n";
}

std::string BenchOutPath(const std::string& filename) {
  ::mkdir("bench_out", 0755);  // ignore EEXIST
  return "bench_out/" + filename;
}

}  // namespace bench
}  // namespace stwa
