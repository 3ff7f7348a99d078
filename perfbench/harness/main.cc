// perfbench: runs one benchmark workload and prints its result line.
//
//   perfbench --workload fleet_stream|serve_batch|train_stwa --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// Refuses to run when an environment variable that swaps the program being
// measured is set. Prints the [runtime] banner, host-noise notes and, as
// the last line, one JSON object with correct/attempted/failed/metrics.

#include <sys/stat.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

/// Each of these silently replaces part of the measured program.
constexpr const char* kForbiddenEnv[] = {
    "STWA_NUM_THREADS",    "STWA_DISABLE_POOL", "STWA_NO_PLAN",
    "STWA_NO_FUSE",        "STWA_NO_REGION_PAR", "STWA_NO_STREAM_CACHE",
    "STWA_PRECISION",      "STWA_POOL_MAX_BYTES",
};

int Usage() {
  std::cerr << "usage: perfbench --workload fleet_stream|serve_batch|"
               "train_stwa --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds < 1) return Usage();
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << name
                << " set; it changes the program being measured\n";
      return 2;
    }
  }
  ::mkdir(options.work_dir.c_str(), 0755);  // ignore EEXIST

  perfbench::Outcome outcome;
  try {
    if (options.workload == "fleet_stream") {
      outcome = perfbench::RunFleetStream(options);
    } else if (options.workload == "serve_batch") {
      outcome = perfbench::RunServeBatch(options);
    } else if (options.workload == "train_stwa") {
      outcome = perfbench::RunTrainStwa(options);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& note : outcome.notes) std::cout << note << "\n";
  std::cout << "[result] attempted=" << outcome.tally.attempted
            << " failed=" << outcome.tally.failed
            << " correct=" << (outcome.correct ? 1 : 0) << "\n";
  std::cout << perfbench::ResultJson(outcome) << std::endl;
  return 0;
}
