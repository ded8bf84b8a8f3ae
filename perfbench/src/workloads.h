// The benchmark's workloads. Each builds its inputs from Config::seed,
// times its ops for Config::seconds, checks its outputs untimed, and
// returns the end-to-end metrics (or, traced, the per-layer metrics).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"

namespace perfbench {

Result RunSearchAnneal(const Config& cfg);
Result RunUndoIndependent(const Config& cfg);
Result RunServeCommit(const Config& cfg);

// Where a traced run writes its spans (one CSV per workload, replaced by
// the next traced run of that workload).
inline std::string SpansPath(const Config& cfg) {
  return cfg.out_dir + "/spans-" + cfg.workload + ".csv";
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
