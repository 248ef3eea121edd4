#include "record.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "json_text.h"

namespace perfbench {

using sliceline::core::SliceLineResult;

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int64_t Recorder::NextOpId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_op_++;
}

void Recorder::AddOp(const Op& op) {
  std::lock_guard<std::mutex> lock(mutex_);
  ops_.push_back(op);
}

int64_t Recorder::NewSpanId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_span_++;
}

void Recorder::AddSpan(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

int64_t Recorder::AddSpan(int64_t op, int64_t parent, const std::string& name,
                          int level, int64_t begin_ns, int64_t end_ns) {
  const int64_t id = NewSpanId();
  AddSpan(Span{op, id, parent, name, level, begin_ns, end_ns});
  return id;
}

void Recorder::AddCounters(int64_t op, std::string json_object) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.emplace_back(op, std::move(json_object));
}

void Recorder::Fail(const std::string& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failures_.size() < 20) failures_.push_back(message);
}

void Recorder::AddCheck(bool ok, const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++checks_;
    if (!ok) ++checks_failed_;
  }
  if (!ok) Fail(message);
}

void Recorder::Stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, JsonString(value));
}

void Recorder::Stamp(const std::string& key, double value) {
  stamp_.emplace_back(key, JsonNumber(value));
}

bool Recorder::WriteJson(const std::string& path, const Args& args) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t failed = checks_failed_;
  for (const Op& op : ops_) failed += op.ok ? 0 : 1;

  std::ostringstream os;
  os << "{\"workload\":" << JsonString(args.workload)
     << ",\"seed\":" << args.seed << ",\"seconds\":" << JsonNumber(args.seconds)
     << ",\"trace\":" << (args.trace ? 1 : 0);
  os << ",\"stamp\":{";
  for (size_t i = 0; i < stamp_.size(); ++i) {
    os << (i ? "," : "") << JsonString(stamp_[i].first) << ':'
       << stamp_[i].second;
  }
  os << "},\"setup_s\":" << JsonNumbers(setup_s_)
     << ",\"ship_s\":" << JsonNumbers(ship_s_)
     << ",\"window_s\":"
     << JsonNumber(static_cast<double>(window_end_ns_ - window_begin_ns_) *
                   1e-9)
     << ",\"attempted\":" << static_cast<int64_t>(ops_.size()) + checks_
     << ",\"failed\":" << failed << ",\"peak_rss_mb\":"
     << JsonNumber(PeakRssMb());
  os << ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    os << (i ? "," : "") << JsonString(failures_[i]);
  }
  os << "],\"ops\":[";
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    os << (i ? "," : "") << "{\"id\":" << op.id
       << ",\"kind\":" << JsonString(op.kind) << ",\"client\":" << op.client
       << ",\"traced\":" << (op.traced ? "true" : "false")
       << ",\"ok\":" << (op.ok ? "true" : "false")
       << ",\"b\":" << op.begin_ns << ",\"e\":" << op.end_ns << '}';
  }
  os << "],\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? "," : "") << "{\"op\":" << s.op << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"name\":" << JsonString(s.name)
       << ",\"level\":" << s.level << ",\"b\":" << s.begin_ns
       << ",\"e\":" << s.end_ns << '}';
  }
  os << "],\"counters\":[";
  for (size_t i = 0; i < counters_.size(); ++i) {
    os << (i ? "," : "") << "{\"op\":" << counters_[i].first
       << ",\"c\":" << counters_[i].second << '}';
  }
  os << "],\"extra\":" << (extra_.empty() ? std::string("{}") : extra_)
     << "}\n";

  std::ofstream out(path);
  out << os.str();
  return static_cast<bool>(out);
}

sliceline::StatusOr<sliceline::core::EvalResult> TimedBackend::Evaluate(
    const sliceline::core::SliceSet& set,
    const sliceline::core::SliceLineConfig& config) const {
  const int level = set.size() > 0 ? static_cast<int>(set.Length(0)) : 0;
  const int64_t begin = NowNs();
  sliceline::StatusOr<sliceline::core::EvalResult> out =
      inner_.Evaluate(set, config);
  const int64_t end = NowNs();
  if (recorder_ != nullptr) {
    recorder_->AddSpan(op_, parent_, "evaluate", level, begin, end);
  }
  words_ += set.total_columns() * ((inner_.n() + 63) / 64);
  return out;
}

std::string LevelsJson(const SliceLineResult& result) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < result.levels.size(); ++i) {
    const auto& level = result.levels[i];
    os << (i ? "," : "") << '[' << level.level << ',' << level.candidates
       << ',' << level.valid << ',' << level.pruned << ']';
  }
  os << ']';
  return os.str();
}

namespace {

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

std::string CompareTopK(const SliceLineResult& got, const SliceLineResult& want,
                        bool exact) {
  if (got.top_k.size() != want.top_k.size()) {
    return "top-K size " + std::to_string(got.top_k.size()) + " != " +
           std::to_string(want.top_k.size());
  }
  for (size_t i = 0; i < got.top_k.size(); ++i) {
    const auto& g = got.top_k[i];
    const auto& w = want.top_k[i];
    const std::string at = "slice " + std::to_string(i) + ": ";
    if (g.predicates != w.predicates) return at + "predicates differ";
    if (g.stats.size != w.stats.size) return at + "size differs";
    if (g.stats.max_error != w.stats.max_error) return at + "max_error differs";
    const bool sums_match =
        exact ? g.stats.score == w.stats.score &&
                    g.stats.error_sum == w.stats.error_sum
              : Near(g.stats.score, w.stats.score) &&
                    Near(g.stats.error_sum, w.stats.error_sum);
    if (!sums_match) return at + "score or error_sum differs";
  }
  return "";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
