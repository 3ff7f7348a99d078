// Long-horizon forecasting (the paper's Table VI scenario): predict six
// hours ahead from six hours of history (H = U = 72) and check, with the
// analytic memory model, which architectures would fit on a 16 GB GPU at
// the paper's real network sizes.
//
//   ./examples/long_horizon [epochs]

#include <cstdlib>
#include <iostream>

#include "baselines/registry.h"
#include "common/string_util.h"
#include "core/memory_model.h"
#include "data/traffic_generator.h"
#include "train/table.h"
#include "train/trainer.h"

int main(int argc, char** argv) {
  using namespace stwa;
  const int epochs = argc > 1 ? std::atoi(argv[1]) : 10;

  data::GeneratorOptions gen;
  gen.name = "long-horizon";
  gen.num_roads = 4;
  gen.sensors_per_road = 3;
  gen.num_days = 10;
  gen.steps_per_day = 144;
  gen.seed = 7;
  data::TrafficDataset dataset = data::GenerateTraffic(gen);

  baselines::ModelSettings settings;
  settings.history = 72;
  settings.horizon = 72;
  settings.d_model = 16;
  settings.window_sizes = {6, 6, 2};  // paper's H=72 configuration
  settings.proxies = 2;
  settings.latent_dim = 8;
  settings.predictor_hidden = 64;

  train::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 8;
  config.stride = 3;
  config.eval_stride = 6;

  // 1. Train ST-WA on the 6h -> 6h task.
  auto model = baselines::MakeModel("ST-WA", dataset, settings);
  train::Trainer trainer(dataset, settings.history, settings.horizon,
                         config);
  train::TrainResult result = trainer.Fit(*model);
  std::cout << "ST-WA at H=U=72: MAE=" << FormatFloat(result.test.mae, 2)
            << " RMSE=" << FormatFloat(result.test.rmse, 2) << " ("
            << FormatFloat(result.seconds_per_epoch, 2) << " s/epoch)\n\n";

  // 2. Would each architecture fit on the paper's 16 GB V100 at real
  //    PEMS sizes with this setting? (Table VI's OOM analysis.)
  train::TablePrinter table(
      "Estimated training memory at paper scale, H=U=72, batch 64");
  table.SetHeader({"N (dataset)", "ST-WA", "AGCRN", "EnhanceNet",
                   "STFGNN"});
  for (auto [n, name] : {std::pair<int64_t, const char*>{170, "PEMS08"},
                         {307, "PEMS04"},
                         {358, "PEMS03"},
                         {883, "PEMS07"}}) {
    core::MemoryWorkload w;
    w.sensors = n;
    w.history = 72;
    w.horizon = 72;
    auto cell = [](double gb) {
      return core::WouldOom(gb) ? "OOM(" + FormatFloat(gb, 0) + "GB)"
                                : FormatFloat(gb, 1) + "GB";
    };
    table.AddRow({std::string(name) + " N=" + std::to_string(n),
                  cell(1.8 * core::WindowAttentionGb(w, {6, 6, 2}, 2)),
                  cell(core::AdaptiveGraphGb(w)),
                  cell(core::EnhanceNetGb(w)),
                  cell(core::FusionGraphGb(w))});
  }
  table.Print();
  std::cout << "\nLinear-complexity window attention keeps ST-WA far "
               "below the budget even on the largest network, while "
               "EnhanceNet and STFGNN exceed it on PEMS07 — the Table VI "
               "OOM pattern.\n";
  return 0;
}
