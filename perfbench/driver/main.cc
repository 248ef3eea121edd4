// perfbench_driver: runs one seeded workload for a fixed window and writes
// every raw measurement (ops, spans, counters, set-up samples, environment
// stamp) to one JSON document. perfbench/run.py builds this binary, runs
// it, and turns the document into metrics.
//
//   perfbench_driver --workload batch-wide --seed 1 --seconds 15
//       --trace 0 --raw out.json --workdir DIR
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "linalg/kernels_simd.h"
#include "record.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "batch-wide|batch-deep|dist-shards|serve-mixed --seed N "
               "--seconds S --trace 0|1 --raw PATH --workdir DIR\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--raw") {
      args.raw_path = value;
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  const bool batch = args.workload == "batch-wide" ||
                     args.workload == "batch-deep" ||
                     args.workload == "dist-shards";
  if ((!batch && args.workload != "serve-mixed") || args.raw_path.empty() ||
      args.workdir.empty() || !(args.seconds > 0.0)) {
    return Usage();
  }

  perfbench::NowNs();  // pin the clock epoch
  perfbench::Recorder rec;
  rec.Stamp("isa", sliceline::linalg::SelectedIsaName());
  rec.Stamp("pool_threads",
            static_cast<double>(sliceline::GlobalThreadPool().num_threads()));
  rec.Stamp("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));

  const int rc = batch ? perfbench::RunBatch(args, &rec)
                       : perfbench::RunServe(args, &rec);
  if (rc != 0) return rc;
  if (!rec.WriteJson(args.raw_path, args)) {
    return perfbench::Fatal("cannot write " + args.raw_path);
  }
  return 0;
}
