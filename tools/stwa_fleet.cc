// stwa_fleet: the serving CLI — a fleet node over one or more model
// profiles (src/fleet).
//
// Modes:
//   --train-demo <dir> [--epochs E]
//       Train two tiny city models (cityA: 4 sensors, cityB: 3 sensors)
//       and write <dir>/cityA.bin and <dir>/cityB.bin — self-contained
//       checkpoints for smoke tests and the CI fleet job.
//   --config <path> [--port P]
//       Serve the profiles in a fleet config file (fleet/config.h). The
//       default transport is the fleet line protocol on stdin/stdout
//       (fleet/protocol.h); --port listens on TCP with one connection
//       thread and one FleetLineSession per client, all sharing the node.
//
// Example config (two city profiles and a capped tenant):
//   profile cityA ckpt=demo/cityA.bin tiles=8 shards=2 workers=2
//   profile cityB ckpt=demo/cityB.bin tiles=4 shards=2 precision=bf16
//   quota free rate=100 burst=200
//
// A single checkpoint is served by a one-profile config, e.g.
//   profile demo ckpt=demo/cityA.bin workers=2 max_batch=8 serial_kernels=0
// and lines such as "demo obs 0 <v...>" and "demo forecast 0".

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include <sys/stat.h>

#include "data/traffic_generator.h"
#include "demo_train.h"
#include "fleet/config.h"
#include "fleet/protocol.h"
#include "serve/checkpoint.h"
#include "serve/line_transport.h"

namespace stwa {
namespace {

struct Args {
  std::string train_demo_dir;
  int epochs = 2;
  std::string config;
  int port = 0;  // 0 = stdin/stdout
};

void PrintUsage() {
  std::cerr <<
      "usage:\n"
      "  stwa_fleet --train-demo <dir> [--epochs E]\n"
      "  stwa_fleet --config <path> [--port P]\n";
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
      args->train_demo_dir = v;
    } else if (flag == "--epochs") {
      if ((v = next_value(i)) == nullptr) return false;
      args->epochs = std::atoi(v);
    } else if (flag == "--config") {
      if ((v = next_value(i)) == nullptr) return false;
      args->config = v;
    } else if (flag == "--port") {
      if ((v = next_value(i)) == nullptr) return false;
      args->port = std::atoi(v);
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::cerr << "unknown flag '" << flag << "'\n";
      return false;
    }
  }
  return !args->train_demo_dir.empty() || !args->config.empty();
}

/// Trains one tiny city model and writes a serving checkpoint
/// (tools/demo_train.h).
void TrainCity(const std::string& name, int64_t roads,
               int64_t sensors_per_road, uint64_t seed, int epochs,
               const std::string& path) {
  tools::DemoTrainOptions options;
  options.dataset_name = name;
  options.num_roads = roads;
  options.sensors_per_road = sensors_per_road;
  options.seed = seed;
  data::TrafficDataset dataset =
      data::GenerateTraffic(tools::DemoGeneratorOptions(options));
  tools::TrainDemoCheckpoint(name, dataset, epochs, path);
}

int TrainDemo(const Args& args) {
  ::mkdir(args.train_demo_dir.c_str(), 0755);  // ignore EEXIST
  TrainCity("cityA", 2, 2, 17, args.epochs,
            args.train_demo_dir + "/cityA.bin");
  TrainCity("cityB", 3, 1, 23, args.epochs,
            args.train_demo_dir + "/cityB.bin");
  return 0;
}

int Serve(const Args& args) {
  const fleet::FleetConfig config = fleet::LoadFleetConfig(args.config);
  fleet::FleetNode node(config);
  for (const auto& [name, profile] : node.registry().entries()) {
    const serve::ServingInfo info = profile->Info();
    std::cerr << "profile " << name << ": " << info.model << " gen="
              << profile->Version() << " ckpt_version=" << info.ckpt_version
              << ", " << profile->router().tiles() << " tiles x "
              << info.num_sensors << " sensors over "
              << profile->router().shards() << " shard(s), "
              << profile->config().workers << " worker(s)/shard, precision "
              << simd::PrecisionName(profile->config().precision) << "\n";
  }
  auto new_session = [&node]() -> serve::LineHandler {
    return [session = std::make_shared<fleet::FleetLineSession>(node)](
               const std::string& line, bool* quit) {
      return session->Handle(line, quit);
    };
  };
  if (args.port > 0) return serve::ServeTcp(args.port, new_session);
  serve::ServeLines(std::cin, std::cout, new_session());
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
    if (!args.train_demo_dir.empty()) return stwa::TrainDemo(args);
    return stwa::Serve(args);
  } catch (const std::exception& e) {
    std::cerr << "fatal: " << e.what() << "\n";
    return 1;
  }
}
