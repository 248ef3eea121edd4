// Workload entry points of the perfbench driver.
#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstdio>
#include <string>

#include "record.h"

namespace perfbench {

/// Set-up runs this many times per driver run; setup_s is their median.
inline constexpr int kSetupRepetitions = 3;

/// Reports a set-up error and yields the driver's failure exit code.
inline int Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 2;
}

/// batch-wide, batch-deep, dist-shards (batch.cc).
int RunBatch(const Args& args, Recorder* rec);
/// serve-mixed (serve.cc).
int RunServe(const Args& args, Recorder* rec);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
