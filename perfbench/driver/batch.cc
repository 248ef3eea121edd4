// batch-wide, batch-deep and dist-shards: one caller in a closed loop runs
// full slice-finding jobs on a seeded generator dataset, either in-process
// (core::RunSliceLine) or against in-process dist::Worker shards over
// loopback TCP (core::RunSliceLineWithBackend on a RemoteSliceEvaluator).
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/sliceline.h"
#include "data/generators/generators.h"
#include "data/onehot.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "json_text.h"
#include "record.h"
#include "workloads.h"

namespace perfbench {

namespace sl = sliceline;

namespace {

struct BatchShape {
  const char* generator;
  int64_t rows;
  int max_level;
  int workers;   ///< 0 = single node
  int datasets;  ///< finds cycle through this many seeded datasets
};

// Slices per eval_block request on dist-shards. With the coordinator's
// default of 256 a level-2 find is ~370 loopback round trips, and their
// wake-up latency on a shared host swung the find time by up to 65% from
// one run to the next; 4096 keeps ~12 requests per worker per find, so the
// find measures broadcast, worker kernels, gather and merge rather than
// scheduler wake-ups.
constexpr int64_t kDistBlockSlices = 4096;

// kdd98-like cost depends on how many level-2 pairs survive pruning, which
// swings by tens of percent from one seed to the next; cycling through
// eight datasets derived from the seed keeps the median find steady across
// seeds. The uscensus-like shapes are steady with one.
BatchShape ShapeFor(const std::string& workload) {
  if (workload == "batch-wide") return {"kdd98", 954, 3, 0, 8};
  if (workload == "batch-deep") return {"uscensus", 49166, 3, 0, 1};
  return {"uscensus", 98332, 2, 2, 1};  // dist-shards
}

/// The distributed cluster of one setup: in-process workers on
/// kernel-assigned loopback ports plus the coordinator that holds their
/// shards.
struct Cluster {
  std::vector<std::unique_ptr<sl::dist::Worker>> workers;
  std::unique_ptr<sl::dist::RemoteSliceEvaluator> evaluator;

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() { Stop(); }
  void Stop() {
    evaluator.reset();
    for (auto& worker : workers) {
      worker->RequestShutdown();
      worker->Wait();
    }
    workers.clear();
  }
};

std::string DistStatsJson(const sl::dist::RemoteSliceEvaluator& evaluator) {
  const sl::dist::DistCostStats& cost = evaluator.cost();
  const sl::dist::DistFaultStats& faults = evaluator.faults();
  std::ostringstream os;
  os << "{\"rounds\":" << cost.rounds
     << ",\"broadcast_bytes\":" << cost.broadcast_bytes
     << ",\"gather_bytes\":" << cost.gather_bytes
     << ",\"worker_busy_s\":" << JsonNumber(cost.worker_busy_seconds)
     << ",\"critical_path_s\":" << JsonNumber(cost.critical_path_seconds)
     << ",\"retries\":" << faults.retries
     << ",\"speculative\":" << faults.speculative_reexecutions
     << ",\"workers_lost\":" << faults.workers_lost
     << ",\"fallback\":" << (faults.fallback_local ? 1 : 0) << '}';
  return os.str();
}

}  // namespace

int RunBatch(const Args& args, Recorder* rec) {
  const BatchShape shape = ShapeFor(args.workload);
  sl::core::SliceLineConfig config;
  config.k = 4;
  config.alpha = 0.95;
  config.max_level = shape.max_level;

  // -- set-up, repeated so its median is steady; the last one is kept. --
  std::vector<sl::data::EncodedDataset> datasets;
  Cluster cluster;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    cluster.Stop();
    datasets.clear();
    const int64_t begin = NowNs();
    for (int d = 0; d < shape.datasets; ++d) {
      sl::data::DatasetOptions options;
      options.rows = shape.rows;
      options.seed = args.seed * shape.datasets + d;
      auto made = sl::data::MakeDatasetByName(shape.generator, options);
      if (!made.ok()) return Fatal("generate: " + made.status().ToString());
      datasets.push_back(std::move(made).value());
    }
    const sl::data::EncodedDataset& dataset = datasets.front();
    if (shape.workers > 0) {
      sl::dist::RemoteDistOptions dist_options;
      dist_options.max_block_slices = kDistBlockSlices;
      for (int w = 0; w < shape.workers; ++w) {
        sl::dist::WorkerOptions worker_options;
        worker_options.tcp_port = 0;
        cluster.workers.push_back(
            std::make_unique<sl::dist::Worker>(worker_options));
        const sl::Status started = cluster.workers.back()->Start();
        if (!started.ok()) return Fatal("worker: " + started.ToString());
        dist_options.endpoints.push_back(
            sl::dist::WorkerEndpoint{"", cluster.workers.back()->tcp_port()});
      }
      const int64_t ship_begin = NowNs();
      auto created = sl::dist::RemoteSliceEvaluator::Create(
          dataset.x0, dataset.errors, dist_options);
      if (!created.ok()) return Fatal("ship: " + created.status().ToString());
      cluster.evaluator = std::move(created).value();
      rec->AddShipSample((NowNs() - ship_begin) * 1e-9);
    }
    auto warm = shape.workers > 0
                    ? sl::core::RunSliceLineWithBackend(*cluster.evaluator,
                                                        config)
                    : sl::core::RunSliceLine(dataset.x0, dataset.errors,
                                             config);
    if (!warm.ok()) return Fatal("warm-up: " + warm.status().ToString());
    rec->AddSetupSample((NowNs() - begin) * 1e-9);
  }

  // Single-node, single-threaded references: every timed find must match.
  // Their work counts (per level, and bitmap words) are the same in every
  // find of the dataset, so they are recorded here, independent of how
  // many finds the window fits.
  sl::core::SliceLineConfig reference_config = config;
  reference_config.parallel = false;
  std::vector<sl::core::SliceLineResult> references;
  std::string work = "[";
  for (const sl::data::EncodedDataset& dataset : datasets) {
    const sl::data::FeatureOffsets offsets =
        sl::data::ComputeOffsets(dataset.x0);
    const sl::core::SliceEvaluator evaluator(dataset.x0, offsets,
                                             dataset.errors);
    const TimedBackend counted(evaluator, nullptr, 0, 0);
    auto reference =
        sl::core::RunSliceLineWithBackend(counted, reference_config);
    if (!reference.ok()) {
      return Fatal("reference: " + reference.status().ToString());
    }
    work += (references.empty() ? "{" : ",{") + std::string("\"eval_words\":") +
            std::to_string(counted.words()) +
            ",\"levels\":" + LevelsJson(*reference) + "}";
    references.push_back(std::move(reference).value());
  }
  rec->SetExtra("{\"work\":" + work + "]}");
  const bool exact = shape.workers == 0;

  rec->Stamp("generator", shape.generator);
  rec->Stamp("datasets", shape.datasets);
  rec->Stamp("rows", static_cast<double>(datasets.front().n()));
  rec->Stamp("features", static_cast<double>(datasets.front().m()));
  rec->Stamp("onehot", static_cast<double>(datasets.front().OneHotWidth()));
  rec->Stamp("max_level", shape.max_level);
  rec->Stamp("k", config.k);
  rec->Stamp("alpha", config.alpha);
  rec->Stamp("dist_workers", shape.workers);
  rec->Stamp("dist_block_slices",
             shape.workers > 0 ? static_cast<double>(kDistBlockSlices) : 0.0);
  rec->Stamp("mix", "find 100%, 1 closed-loop caller");

  // -- timed closed loop. In a traced run every other find goes through
  // the timing decorator; the untraced ones measure tracing overhead. --
  const int64_t window_begin = NowNs();
  const int64_t deadline =
      window_begin + static_cast<int64_t>(args.seconds * 1e9);
  for (int64_t i = 0; NowNs() < deadline; ++i) {
    // Consecutive pairs share a dataset, so a traced run's traced and
    // untraced halves see the same inputs.
    const size_t d = static_cast<size_t>(i / 2) % datasets.size();
    const sl::data::EncodedDataset& dataset = datasets[d];
    Op op;
    op.id = rec->NextOpId();
    op.kind = "find";
    op.traced = args.trace && i % 2 == 1;
    std::string counters;
    op.begin_ns = NowNs();
    sl::StatusOr<sl::core::SliceLineResult> result =
        sl::Status::Internal("not run");
    if (!op.traced) {
      result = shape.workers > 0
                   ? sl::core::RunSliceLineWithBackend(*cluster.evaluator,
                                                       config)
                   : sl::core::RunSliceLine(dataset.x0, dataset.errors,
                                            config);
      op.end_ns = NowNs();
    } else if (shape.workers == 0) {
      const int64_t prep_begin = NowNs();
      const sl::data::FeatureOffsets offsets =
          sl::data::ComputeOffsets(dataset.x0);
      const sl::core::SliceEvaluator evaluator(dataset.x0, offsets,
                                               dataset.errors);
      const int64_t prep_end = NowNs();
      const int64_t find_span = rec->NewSpanId();
      rec->AddSpan(op.id, find_span, "prep", 0, prep_begin, prep_end);
      const TimedBackend timed(evaluator, rec, op.id, find_span);
      result = sl::core::RunSliceLineWithBackend(timed, config);
      op.end_ns = NowNs();
      rec->AddSpan(Span{op.id, find_span, 0, "find", 0, op.begin_ns, op.end_ns});
      counters = "{\"eval_words\":" + std::to_string(timed.words());
    } else {
      const std::string before = DistStatsJson(*cluster.evaluator);
      const int64_t find_span = rec->NewSpanId();
      const TimedBackend timed(*cluster.evaluator, rec, op.id, find_span);
      result = sl::core::RunSliceLineWithBackend(timed, config);
      op.end_ns = NowNs();
      rec->AddSpan(Span{op.id, find_span, 0, "find", 0, op.begin_ns, op.end_ns});
      counters = "{\"eval_words\":" + std::to_string(timed.words()) +
                 ",\"dist_before\":" + before +
                 ",\"dist_after\":" + DistStatsJson(*cluster.evaluator);
    }
    if (!result.ok()) {
      rec->Fail("find: " + result.status().ToString());
    } else {
      const std::string diff = CompareTopK(*result, references[d], exact);
      op.ok = diff.empty();
      if (!op.ok) rec->Fail("find vs reference: " + diff);
      if (op.traced) {
        rec->AddCounters(op.id, counters + "}");
      }
    }
    rec->AddOp(op);
  }
  rec->SetWindow(window_begin, NowNs());
  return 0;
}

}  // namespace perfbench
