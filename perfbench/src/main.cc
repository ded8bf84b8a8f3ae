// The repository benchmark's runner binary (built and started by
// perfbench/run.py).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Prints a host-noise line and then the result object with every metric
// the run measured: the end-to-end metrics untraced, the per-layer metrics
// traced. Exits 1 when an argument is bad or the workload throws.
#include <unistd.h>

#include <cmath>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": "
       << Number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}";
  return os.str();
}

int Main(int argc, char** argv) {
  Config cfg;
  cfg.seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 1;
    }
  }
  if (cfg.workload.empty() || !have_seed || cfg.out_dir.empty() ||
      !(cfg.seconds > 0)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR\n";
    return 1;
  }
  cfg.work_dir = cfg.out_dir + "/work-" + std::to_string(::getpid());

  Result (*run)(const Config&) = nullptr;
  if (cfg.workload == "search_anneal") run = RunSearchAnneal;
  if (cfg.workload == "undo_independent") run = RunUndoIndependent;
  if (cfg.workload == "serve_commit") run = RunServeCommit;
  if (run == nullptr) {
    std::cerr << "unknown workload " << cfg.workload << "\n";
    return 1;
  }
  std::filesystem::remove_all(cfg.work_dir);
  std::filesystem::create_directories(cfg.work_dir);
  // The process is not pinned to a CPU: pinned to the one it started on, it
  // cannot leave it when a co-runner arrives there (five search_anneal runs
  // beside a busy loop hopping between the 4 vCPUs every 2 s: ops_per_s
  // spread 0.29 pinned, 0.05 unpinned).
  Result result;
  try {
    result = run(cfg);
  } catch (...) {
    std::filesystem::remove_all(cfg.work_dir);
    throw;
  }
  std::filesystem::remove_all(cfg.work_dir);

  for (const std::string& failure : result.check_failures) {
    std::cerr << "output check failed: " << failure << "\n";
  }
  if (!result.correct) result.failed = result.attempted;

  std::cout << "{\"host\": {\"steal_frac\": " << Number(result.host.steal_frac())
            << ", \"loadavg_1m\": " << Number(result.host.loadavg_1m())
            << "}}\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << MetricsJson(result.metrics) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
