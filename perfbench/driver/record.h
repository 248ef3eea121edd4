// Measurement plumbing shared by every perfbench workload: a process-wide
// steady clock, the in-memory op/span recorder whose contents are written
// out once at exit, the timing decorator that splits a find into layers
// from outside the engine, and top-K comparison against a reference run.
#ifndef PERFBENCH_DRIVER_RECORD_H_
#define PERFBENCH_DRIVER_RECORD_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/slice.h"

namespace perfbench {

/// Command-line contract of the driver binary (see run.py).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string raw_path;  ///< where the raw record document is written
  std::string workdir;   ///< scratch directory for CSVs (inside the checkout)
};

/// Steady-clock nanoseconds since the first call in this process.
int64_t NowNs();

/// One timed operation as the caller saw it (closed-loop client view).
struct Op {
  int64_t id = 0;
  std::string kind;  ///< "find" (ran a job), "hit", "append"
  int client = 0;
  bool traced = false;
  bool ok = false;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// A span at a layer boundary. Spans of one op share `op`; `parent` is the
/// id of the enclosing span (0 for the op's root span).
struct Span {
  int64_t op = 0;
  int64_t id = 0;
  int64_t parent = 0;
  std::string name;
  int level = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe in-memory store for everything one driver run measures.
/// Nothing is written until WriteJson() at exit, so recording costs a
/// mutex and a vector append.
class Recorder {
 public:
  int64_t NextOpId();
  void AddOp(const Op& op);
  /// Reserves a span id, so children can name a parent that is recorded
  /// after them (when it ends).
  int64_t NewSpanId();
  void AddSpan(Span span);
  /// Records a span under a fresh id and returns that id.
  int64_t AddSpan(int64_t op, int64_t parent, const std::string& name,
                  int level, int64_t begin_ns, int64_t end_ns);
  /// Attaches a pre-serialized JSON object of counters to `op`.
  void AddCounters(int64_t op, std::string json_object);
  /// Records a correctness failure message (the first few are kept).
  void Fail(const std::string& message);
  /// Counts one attempted operation that is not a timed op (post-run
  /// checks); `ok` false counts it failed.
  void AddCheck(bool ok, const std::string& message);

  void AddSetupSample(double seconds) { setup_s_.push_back(seconds); }
  void AddShipSample(double seconds) { ship_s_.push_back(seconds); }
  void SetWindow(int64_t begin_ns, int64_t end_ns) {
    window_begin_ns_ = begin_ns;
    window_end_ns_ = end_ns;
  }
  /// Workload-shape and environment stamp entries (string or number text).
  void Stamp(const std::string& key, const std::string& value);
  void Stamp(const std::string& key, double value);
  /// Workload-specific raw section, a serialized JSON object.
  void SetExtra(std::string json_object) { extra_ = std::move(json_object); }

  /// Writes the raw record document; false on I/O failure.
  bool WriteJson(const std::string& path, const Args& args) const;

 private:
  mutable std::mutex mutex_;
  int64_t next_op_ = 1;
  int64_t next_span_ = 1;
  std::vector<Op> ops_;
  std::vector<Span> spans_;
  std::vector<std::pair<int64_t, std::string>> counters_;
  std::vector<std::string> failures_;
  int64_t checks_ = 0;
  int64_t checks_failed_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> ship_s_;
  int64_t window_begin_ns_ = 0;
  int64_t window_end_ns_ = 0;
  std::vector<std::pair<std::string, std::string>> stamp_;  // key, JSON text
  std::string extra_;
};

/// EvaluatorBackend decorator that records one "evaluate" span per
/// Evaluate call (level = slice length of the set) and counts the bitmap
/// words the call computes: total predicate columns x ceil(n / 64), with
/// the kernels' zero-word skipping ignored. With a null recorder it only
/// counts.
class TimedBackend : public sliceline::core::EvaluatorBackend {
 public:
  TimedBackend(const sliceline::core::EvaluatorBackend& inner,
               Recorder* recorder, int64_t op, int64_t parent)
      : inner_(inner), recorder_(recorder), op_(op), parent_(parent) {}

  sliceline::StatusOr<sliceline::core::EvalResult> Evaluate(
      const sliceline::core::SliceSet& set,
      const sliceline::core::SliceLineConfig& config) const override;

  const std::vector<int64_t>& basic_sizes() const override {
    return inner_.basic_sizes();
  }
  const std::vector<double>& basic_error_sums() const override {
    return inner_.basic_error_sums();
  }
  const std::vector<double>& basic_max_errors() const override {
    return inner_.basic_max_errors();
  }
  int64_t n() const override { return inner_.n(); }
  double total_error() const override { return inner_.total_error(); }
  const sliceline::data::FeatureOffsets& offsets() const override {
    return inner_.offsets();
  }

  int64_t words() const { return words_; }

 private:
  const sliceline::core::EvaluatorBackend& inner_;
  Recorder* recorder_;
  int64_t op_;
  int64_t parent_;
  mutable int64_t words_ = 0;
};

/// Per-level counts of a finished run as a JSON array of
/// [level, candidates, valid, pruned] rows.
std::string LevelsJson(const sliceline::core::SliceLineResult& result);

/// Compares two top-K lists. `exact` demands bit-identical scores, error
/// sums, max errors, sizes and predicates; otherwise predicates, sizes and
/// max errors must match exactly and scores / error sums to a relative
/// 1e-9 (partial sums merged in shard order reassociate float adds).
/// Returns "" on a match, else a description of the first difference.
std::string CompareTopK(const sliceline::core::SliceLineResult& got,
                        const sliceline::core::SliceLineResult& want,
                        bool exact);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_RECORD_H_
