// stwa_online: online continual learning demo over a serving checkpoint.
//
// Modes:
//   --train-demo <ckpt> [--epochs E]
//       Train the shared demo checkpoint (tools/demo_train.h) — byte
//       identical to the cityA.bin of `stwa_fleet --train-demo` — as the
//       frozen base the run mode adapts.
//   --ckpt <path> [--rows R] [--shift-step S] [--shift-scale X]
//          [--shift-ramp N] [--emit-stride K] [--no-adapt] [--no-fleet]
//          [--publish <path>]
//       Replay the demo stream with a regime shift planted at row S
//       (RNG-free: pre-shift rows match the training distribution
//       exactly) through an online::OnlineLearner. Each row also feeds a
//       single-tile fleet::ModelProfile that keeps answering forecasts
//       throughout; every adaptation cycle publishes the adapted weights
//       (default <ckpt>.adapted) and hot-reloads the profile, so the
//       run demonstrates the full drift -> fine-tune -> zero-drop swap
//       path end to end.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "data/traffic_generator.h"
#include "demo_train.h"
#include "fleet/profile.h"
#include "online/adaptation.h"

namespace stwa {
namespace {

struct Args {
  std::string train_demo_path;
  int epochs = 2;
  std::string ckpt;
  int64_t rows = 384;
  int64_t shift_step = 192;
  float shift_scale = 1.5f;
  int64_t shift_ramp = 0;
  int64_t emit_stride = 1;
  bool adapt = true;
  bool fleet = true;
  std::string publish;
};

void PrintUsage() {
  std::cerr <<
      "usage:\n"
      "  stwa_online --train-demo <ckpt> [--epochs E]\n"
      "  stwa_online --ckpt <path> [--rows R] [--shift-step S]\n"
      "              [--shift-scale X] [--shift-ramp N] [--emit-stride K]\n"
      "              [--no-adapt] [--no-fleet] [--publish <path>]\n";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* v = nullptr;
    if (flag == "--train-demo") {
      if ((v = next_value(i)) == nullptr) return false;
      args->train_demo_path = v;
    } else if (flag == "--epochs") {
      if ((v = next_value(i)) == nullptr) return false;
      args->epochs = std::atoi(v);
    } else if (flag == "--ckpt") {
      if ((v = next_value(i)) == nullptr) return false;
      args->ckpt = v;
    } else if (flag == "--rows") {
      if ((v = next_value(i)) == nullptr) return false;
      args->rows = std::atoll(v);
    } else if (flag == "--shift-step") {
      if ((v = next_value(i)) == nullptr) return false;
      args->shift_step = std::atoll(v);
    } else if (flag == "--shift-scale") {
      if ((v = next_value(i)) == nullptr) return false;
      args->shift_scale = static_cast<float>(std::atof(v));
    } else if (flag == "--shift-ramp") {
      if ((v = next_value(i)) == nullptr) return false;
      args->shift_ramp = std::atoll(v);
    } else if (flag == "--emit-stride") {
      if ((v = next_value(i)) == nullptr) return false;
      args->emit_stride = std::atoll(v);
    } else if (flag == "--no-adapt") {
      args->adapt = false;
    } else if (flag == "--no-fleet") {
      args->fleet = false;
    } else if (flag == "--publish") {
      if ((v = next_value(i)) == nullptr) return false;
      args->publish = v;
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::cerr << "unknown flag '" << flag << "'\n";
      return false;
    }
  }
  return !args->train_demo_path.empty() || !args->ckpt.empty();
}

int TrainDemo(const Args& args) {
  data::TrafficDataset dataset =
      data::GenerateTraffic(tools::DemoGeneratorOptions());
  tools::TrainDemoCheckpoint("ST-WA", dataset, args.epochs,
                             args.train_demo_path);
  return 0;
}

int Run(const Args& args) {
  // The drifted stream: the demo generator with a shift planted at
  // --shift-step. The generator seed matches the demo checkpoint, so the
  // shadow model sees its own training distribution until the shift.
  tools::DemoTrainOptions demo;
  demo.shift_step = args.shift_step;
  demo.shift_scale = args.shift_scale;
  demo.shift_ramp_steps = args.shift_ramp;
  data::ShiftSchedule schedule;
  const data::TrafficDataset stream =
      data::GenerateTraffic(tools::DemoGeneratorOptions(demo), &schedule);
  const int64_t rows = std::min(args.rows, stream.num_steps());
  const int64_t sensors = stream.num_sensors();

  online::OnlineConfig config;
  config.emit_stride = args.emit_stride;
  config.adapt_enabled = args.adapt;
  config.publish_path =
      args.publish.empty() ? args.ckpt + ".adapted" : args.publish;
  online::OnlineLearner learner(args.ckpt, config);
  std::cerr << "online " << learner.info().model << " ("
            << learner.info().num_sensors << " sensors, ckpt_version "
            << learner.info().ckpt_version << "), streaming " << rows
            << " rows, shift at " << args.shift_step << " x"
            << FormatFloat(args.shift_scale, 2)
            << (args.adapt ? "" : ", adaptation disabled") << "\n";

  std::unique_ptr<fleet::ModelProfile> profile;
  if (args.fleet) {
    fleet::FleetProfileConfig fc;
    fc.name = "online";
    fc.checkpoint = args.ckpt;
    profile = std::make_unique<fleet::ModelProfile>(fc);
  }

  std::vector<float> observation(static_cast<size_t>(sensors));
  int64_t forecasts = 0;
  for (int64_t t = 0; t < rows; ++t) {
    for (int64_t i = 0; i < sensors; ++i) {
      observation[static_cast<size_t>(i)] = stream.values({i, t, 0});
    }
    if (profile) {
      profile->PushTile(0, observation);
      if (profile->TileReady(0) && t % 4 == 0) {
        const serve::Response resp = profile->ForecastTile(0).get();
        if (resp.ok) ++forecasts;
      }
    }
    const int64_t triggers_before = learner.drift().triggers();
    const bool adapted = learner.Observe(observation);
    if (learner.drift().triggers() > triggers_before && !adapted) {
      std::cerr << "row " << t << ": drift detected (recent MAE "
                << FormatFloat(learner.drift().recent_mean(), 2)
                << " vs baseline "
                << FormatFloat(learner.drift().baseline_mean(), 2) << ")\n";
    }
    if (adapted) {
      std::cerr << "row " << t << ": adapted in "
                << FormatFloat(learner.stats().last_cycle_ms, 1)
                << " ms (" << learner.config().adapt_steps
                << " steps, final loss "
                << FormatFloat(learner.stats().last_final_loss, 4)
                << "), published ckpt_version "
                << learner.info().ckpt_version << "\n";
      if (profile) {
        const fleet::ReloadResult reload =
            profile->Reload(learner.publish_path());
        std::cerr << "row " << t << ": fleet reloaded to gen "
                  << reload.version << " (swap "
                  << FormatFloat(reload.swap_us, 0) << " us, drain "
                  << FormatFloat(reload.drain_us, 0) << " us)\n";
      }
    }
  }

  std::cerr << "planted events: " << schedule.events.size()
            << " (next after row " << rows << ": "
            << schedule.NextEventAfter(rows) << ")\n";
  std::cerr << "stream done: " << learner.rows_seen() << " rows, "
            << learner.replay().total_added() << " examples ("
            << learner.replay().evicted() << " evicted), "
            << learner.drift().triggers()
            << " drift event(s), " << learner.stats().cycles
            << " adaptation cycle(s), " << learner.stats().publishes
            << " publish(es)\n";
  if (profile) {
    const serve::ServerStats stats = profile->Stats();
    std::cerr << "fleet: gen " << profile->Version() << ", " << forecasts
              << " forecasts, " << stats.completed << " completed, "
              << stats.shed << " shed\n";
    if (stats.shed != 0) {
      std::cerr << "error: reloads dropped requests\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace stwa

int main(int argc, char** argv) {
  stwa::Args args;
  if (!stwa::ParseArgs(argc, argv, &args)) {
    stwa::PrintUsage();
    return 2;
  }
  try {
    if (!args.train_demo_path.empty()) return stwa::TrainDemo(args);
    return stwa::Run(args);
  } catch (const std::exception& e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
  }
}
