#include "testing/replay.h"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <utility>
#include <vector>

#include "common/checked_math.h"
#include "obs/json_parse.h"
#include "obs/json_writer.h"

namespace sliceline::testing {
namespace {

using EvalStrategy = core::SliceLineConfig::EvalStrategy;

constexpr std::pair<EvalStrategy, const char*> kStrategyNames[] = {
    {EvalStrategy::kIndex, "index"},
    {EvalStrategy::kScanBlock, "scan-block"},
    {EvalStrategy::kBitset, "bitset"},
};

/// Version skew must be loud: a key this build does not know is an error.
Status RejectUnknownKeys(const obs::JsonValue& object,
                         std::initializer_list<const char*> known,
                         const char* what) {
  for (const auto& [key, value] : object.object_items()) {
    if (std::none_of(known.begin(), known.end(),
                     [&](const char* k) { return key == k; })) {
      return Status::InvalidArgument(std::string("unknown ") + what + ": " +
                                     key);
    }
  }
  return Status::OK();
}

void WriteConfig(obs::JsonWriter* w, const core::SliceLineConfig& c) {
  w->BeginObject();
  w->Key("k");
  w->Int(c.k);
  w->Key("alpha");
  w->Double(c.alpha);
  w->Key("min_support");
  w->Int(c.min_support);
  w->Key("max_level");
  w->Int(c.max_level);
  w->Key("prune_size");
  w->Bool(c.prune_size);
  w->Key("prune_score");
  w->Bool(c.prune_score);
  w->Key("prune_parents");
  w->Bool(c.prune_parents);
  w->Key("deduplicate");
  w->Bool(c.deduplicate);
  w->Key("eval_strategy");
  for (const auto& [strategy, name] : kStrategyNames) {
    if (strategy == c.eval_strategy) w->String(name);
  }
  w->Key("eval_block_size");
  w->Int(c.eval_block_size);
  w->Key("parallel");
  w->Bool(c.parallel);
  w->EndObject();
}

Status ParseConfig(const obs::JsonValue& object,
                   core::SliceLineConfig* config) {
  if (!object.is_object()) {
    return Status::InvalidArgument("field 'config' must be an object");
  }
  SLICELINE_RETURN_NOT_OK(RejectUnknownKeys(
      object,
      {"k", "alpha", "min_support", "max_level", "prune_size", "prune_score",
       "prune_parents", "deduplicate", "eval_strategy", "eval_block_size",
       "parallel"},
      "config key"));
  SLICELINE_ASSIGN_OR_RETURN(config->k, object.RequireInt<int32_t>("k"));
  SLICELINE_ASSIGN_OR_RETURN(config->alpha, object.RequireNumber("alpha"));
  SLICELINE_ASSIGN_OR_RETURN(config->min_support,
                             object.RequireInt("min_support"));
  SLICELINE_ASSIGN_OR_RETURN(config->max_level,
                             object.RequireInt<int32_t>("max_level"));
  SLICELINE_ASSIGN_OR_RETURN(config->prune_size,
                             object.RequireBool("prune_size"));
  SLICELINE_ASSIGN_OR_RETURN(config->prune_score,
                             object.RequireBool("prune_score"));
  SLICELINE_ASSIGN_OR_RETURN(config->prune_parents,
                             object.RequireBool("prune_parents"));
  SLICELINE_ASSIGN_OR_RETURN(config->deduplicate,
                             object.RequireBool("deduplicate"));
  SLICELINE_ASSIGN_OR_RETURN(const std::string strategy,
                             object.RequireString("eval_strategy"));
  const auto* named = std::find_if(
      std::begin(kStrategyNames), std::end(kStrategyNames),
      [&](const auto& entry) { return strategy == entry.second; });
  if (named == std::end(kStrategyNames)) {
    return Status::InvalidArgument("unknown eval_strategy: " + strategy);
  }
  config->eval_strategy = named->first;
  SLICELINE_ASSIGN_OR_RETURN(config->eval_block_size,
                             object.RequireInt<int32_t>("eval_block_size"));
  SLICELINE_ASSIGN_OR_RETURN(config->parallel, object.RequireBool("parallel"));
  return Status::OK();
}

}  // namespace

std::string ReplayToJson(const ReplayRecord& record) {
  const FuzzCase& fuzz_case = record.fuzz_case;
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginObject();
  w.Key("check");
  w.String(record.check);
  w.Key("failure");
  w.String(record.failure);
  w.Key("case_index");
  w.Uint(record.case_index);
  w.Key("kernel_rounds");
  w.Int(record.kernel_rounds);
  w.Key("seed");
  w.String(std::to_string(fuzz_case.seed));
  w.Key("profile");
  w.String(fuzz_case.profile);
  w.Key("rows");
  w.Int(fuzz_case.x0.rows());
  w.Key("cols");
  w.Int(fuzz_case.x0.cols());
  w.Key("x0");
  w.BeginArray();
  for (int32_t code : fuzz_case.x0.data()) w.Int(code);
  w.EndArray();
  w.Key("errors");
  w.BeginArray();
  for (double e : fuzz_case.errors) w.Double(e);
  w.EndArray();
  w.Key("config");
  WriteConfig(&w, fuzz_case.config);
  w.EndObject();
  os << '\n';
  return os.str();
}

StatusOr<ReplayRecord> ReplayFromJson(const std::string& json) {
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue root, obs::ParseJson(json));
  if (!root.is_object()) {
    return Status::InvalidArgument("replay must be a JSON object");
  }
  SLICELINE_RETURN_NOT_OK(RejectUnknownKeys(
      root,
      {"check", "failure", "case_index", "kernel_rounds", "seed", "profile",
       "rows", "cols", "x0", "errors", "config"},
      "replay key"));
  ReplayRecord record;
  FuzzCase& fuzz_case = record.fuzz_case;
  SLICELINE_ASSIGN_OR_RETURN(record.check, root.RequireString("check"));
  SLICELINE_ASSIGN_OR_RETURN(record.failure, root.RequireString("failure"));
  SLICELINE_ASSIGN_OR_RETURN(const int64_t case_index,
                             root.RequireInt("case_index"));
  if (case_index < 0) {
    return Status::InvalidArgument("case_index must be >= 0");
  }
  record.case_index = static_cast<uint64_t>(case_index);
  SLICELINE_ASSIGN_OR_RETURN(record.kernel_rounds,
                             root.RequireInt<int32_t>("kernel_rounds"));
  SLICELINE_ASSIGN_OR_RETURN(fuzz_case.seed,
                             root.RequireUint64String("seed"));
  SLICELINE_ASSIGN_OR_RETURN(fuzz_case.profile, root.RequireString("profile"));
  SLICELINE_ASSIGN_OR_RETURN(const int64_t rows, root.RequireInt("rows"));
  SLICELINE_ASSIGN_OR_RETURN(const int64_t cols, root.RequireInt("cols"));
  int64_t cells = 0;
  SLICELINE_RETURN_NOT_OK(
      CheckedElementCount(rows, cols, sizeof(int32_t), &cells));
  SLICELINE_ASSIGN_OR_RETURN(const std::vector<int32_t> x0,
                             root.RequireIntArray<int32_t>("x0"));
  if (static_cast<int64_t>(x0.size()) != cells) {
    return Status::InvalidArgument("x0 length != rows * cols");
  }
  SLICELINE_ASSIGN_OR_RETURN(fuzz_case.errors,
                             root.RequireNumberArray("errors"));
  if (record.check != "kernel" &&
      static_cast<int64_t>(fuzz_case.errors.size()) != rows) {
    return Status::InvalidArgument("errors length != rows");
  }
  const obs::JsonValue* config = root.Find("config");
  if (config == nullptr) {
    return Status::InvalidArgument("missing field 'config'");
  }
  SLICELINE_RETURN_NOT_OK(ParseConfig(*config, &fuzz_case.config));
  fuzz_case.x0 = data::IntMatrix(rows, cols);
  std::copy(x0.begin(), x0.end(), fuzz_case.x0.row(0));
  return record;
}

Status WriteReplayFile(const std::string& path, const ReplayRecord& record) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ReplayToJson(record);
  out.flush();
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

StatusOr<ReplayRecord> ReadReplayFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReplayFromJson(buffer.str());
}

}  // namespace sliceline::testing
