// Reproduces Table VI: long-term forecasting with H = U = 72 across the
// four datasets for the top-3 baselines and ST-WA. The OOM cells are
// decided by the analytic memory model evaluated at the PAPER's scale
// (real sensor counts, batch 64, 16 GB budget) — see
// src/core/memory_model.h; models that would OOM are not trained.
// Expected shape: ST-WA clearly best; EnhanceNet and STFGNN OOM on the
// largest network (PEMS07); AGCRN degrades badly at long horizons.

#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/memory_model.h"

namespace stwa {
namespace bench {
namespace {

double EstimateGb(const std::string& model, core::MemoryWorkload w) {
  if (model == "STFGNN") return core::FusionGraphGb(w);
  if (model == "EnhanceNet") return core::EnhanceNetGb(w);
  if (model == "AGCRN") return core::AdaptiveGraphGb(w);
  // ST-WA: window attention with the H=72 configuration (S=6, p=2).
  return 1.8 * core::WindowAttentionGb(w, {6, 6, 2}, 2);
}

void Run() {
  ReportRuntime();
  BenchScale scale = GetScale();
  train::TrainConfig config = MakeTrainConfig(scale);
  // H = U = 72 batches are ~6x the H=12 cost; keep the table affordable.
  config.epochs = std::min(config.epochs, 25);
  config.stride *= 2;
  config.eval_stride *= 2;
  const std::vector<std::string> models = {"STFGNN", "EnhanceNet", "AGCRN",
                                           "ST-WA"};

  train::TablePrinter table(
      "Table VI: Overall accuracy, H=72, U=72 (OOM = analytic estimate "
      "exceeds 16 GB at paper scale)");
  table.SetHeader({"Dataset", "Model", "MAE", "MAPE", "RMSE",
                   "PaperMem(GB)"});
  for (PaperDataset ds : {PaperDataset::kPems03, PaperDataset::kPems04,
                          PaperDataset::kPems07, PaperDataset::kPems08}) {
    data::TrafficDataset dataset = MakeDataset(ds, scale);
    baselines::ModelSettings settings = MakeSettings(scale, 72, 72);
    settings.proxies = 2;  // paper: p=2 for H=72
    core::MemoryWorkload paper_scale;
    paper_scale.sensors = PaperSensorCount(ds);
    paper_scale.history = 72;
    paper_scale.horizon = 72;
    for (const std::string& name : models) {
      const double gb = EstimateGb(name, paper_scale);
      std::vector<std::string> row = {dataset.name, name};
      if (core::WouldOom(gb)) {
        row.insert(row.end(), {"OOM", "OOM", "OOM"});
      } else {
        train::TrainResult result =
            RunModel(name, dataset, settings, config);
        for (const std::string& cell : MetricCells(result.test)) {
          row.push_back(cell);
        }
      }
      row.push_back(FormatFloat(gb, 1));
      table.AddRow(row);
      std::cout << "." << std::flush;
    }
    table.AddSeparator();
  }
  std::cout << "\n";
  table.Print();
  std::cout << "\nExpected shape (paper Table VI): ST-WA best everywhere; "
               "EnhanceNet and STFGNN OOM on PEMS07 (N=883); AGCRN runs "
               "but degrades at the long horizon.\n";
}

}  // namespace
}  // namespace bench
}  // namespace stwa

int main() {
  stwa::bench::Run();
  return 0;
}
