#include "serve/protocol.h"

#include <sstream>

namespace sliceline::serve {

namespace {

struct CodeName {
  StatusCode code;
  const char* name;
};

constexpr CodeName kCodeNames[] = {
    {StatusCode::kInvalidArgument, "invalid_argument"},
    {StatusCode::kOutOfRange, "out_of_range"},
    {StatusCode::kNotFound, "not_found"},
    {StatusCode::kIoError, "io_error"},
    {StatusCode::kNotImplemented, "not_implemented"},
    {StatusCode::kInternal, "internal"},
    {StatusCode::kCancelled, "cancelled"},
    {StatusCode::kDeadlineExceeded, "deadline_exceeded"},
    {StatusCode::kResourceExhausted, "resource_exhausted"},
};

const char* TerminationNameOf(RunOutcome::Termination t) {
  return RunOutcome::TerminationName(t);
}

StatusOr<RunOutcome::Termination> TerminationFromName(
    const std::string& name) {
  using T = RunOutcome::Termination;
  for (T t : {T::kCompleted, T::kDegraded, T::kDeadlineExceeded, T::kCancelled,
              T::kBudgetExhausted}) {
    if (name == TerminationNameOf(t)) return t;
  }
  return Status::InvalidArgument("unknown termination '" + name + "'");
}

}  // namespace

std::string ErrorCodeForStatus(const Status& status) {
  for (const CodeName& entry : kCodeNames) {
    if (entry.code == status.code()) return entry.name;
  }
  return "internal";
}

Status StatusFromError(const std::string& code, const std::string& message) {
  for (const CodeName& entry : kCodeNames) {
    if (code == entry.name) return Status(entry.code, message);
  }
  return Status::Internal("(" + code + ") " + message);
}

const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kRegisterDataset: return "register_dataset";
    case RequestType::kFindSlices: return "find_slices";
    case RequestType::kGetStatus: return "get_status";
    case RequestType::kCancel: return "cancel";
    case RequestType::kListDatasets: return "list_datasets";
    case RequestType::kServerStats: return "server_stats";
    case RequestType::kGetReport: return "get_report";
    case RequestType::kGetTrace: return "get_trace";
    case RequestType::kAppendRows: return "append_rows";
    case RequestType::kWatchDataset: return "watch";
    case RequestType::kUnwatchDataset: return "unwatch";
    case RequestType::kUnregisterDataset: return "unregister_dataset";
  }
  return "unknown";
}

StatusOr<RequestType> RequestTypeFromName(const std::string& name) {
  for (RequestType t :
       {RequestType::kRegisterDataset, RequestType::kFindSlices,
        RequestType::kGetStatus, RequestType::kCancel,
        RequestType::kListDatasets, RequestType::kServerStats,
        RequestType::kGetReport, RequestType::kGetTrace,
        RequestType::kAppendRows, RequestType::kWatchDataset,
        RequestType::kUnwatchDataset, RequestType::kUnregisterDataset}) {
    if (name == RequestTypeName(t)) return t;
  }
  return Status::InvalidArgument("unknown request type '" + name + "'");
}

StatusOr<obs::JsonValue> ParseRequestObject(const std::string& line) {
  StatusOr<obs::JsonValue> root = obs::ParseJson(line);
  if (!root.ok()) {
    return Status::InvalidArgument("malformed request: " +
                                   root.status().message());
  }
  if (!root->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  return root;
}

StatusOr<Request> ParseRequest(const std::string& line) {
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue root,
                             ParseRequestObject(line));

  Request request;
  SLICELINE_ASSIGN_OR_RETURN(const std::string type_name,
                             root.RequireString("type"));
  SLICELINE_ASSIGN_OR_RETURN(request.type, RequestTypeFromName(type_name));
  SLICELINE_ASSIGN_OR_RETURN(request.id, root.OptionalString("id", ""));

  switch (request.type) {
    case RequestType::kRegisterDataset: {
      RegisterDatasetRequest& r = request.register_dataset;
      SLICELINE_ASSIGN_OR_RETURN(r.name, root.RequireString("name"));
      SLICELINE_ASSIGN_OR_RETURN(r.csv_path, root.RequireString("csv"));
      SLICELINE_ASSIGN_OR_RETURN(r.label, root.RequireString("label"));
      SLICELINE_ASSIGN_OR_RETURN(r.task, root.OptionalString("task", "reg"));
      SLICELINE_ASSIGN_OR_RETURN(r.bins, root.OptionalInt("bins", 10));
      if (root.Find("drop") != nullptr) {
        SLICELINE_ASSIGN_OR_RETURN(r.drop, root.RequireStringArray("drop"));
      }
      break;
    }
    case RequestType::kFindSlices: {
      FindSlicesRequest& f = request.find_slices;
      SLICELINE_ASSIGN_OR_RETURN(f.dataset, root.RequireString("dataset"));
      SLICELINE_ASSIGN_OR_RETURN(f.engine,
                                 root.OptionalString("engine", "native"));
      SLICELINE_ASSIGN_OR_RETURN(f.k, root.OptionalInt("k", 4));
      SLICELINE_ASSIGN_OR_RETURN(f.alpha, root.OptionalNumber("alpha", 0.95));
      SLICELINE_ASSIGN_OR_RETURN(f.sigma, root.OptionalInt("sigma", 0));
      SLICELINE_ASSIGN_OR_RETURN(f.max_level,
                                 root.OptionalInt("max_level", 0));
      SLICELINE_ASSIGN_OR_RETURN(f.deadline_ms,
                                 root.OptionalInt("deadline_ms", 0));
      SLICELINE_ASSIGN_OR_RETURN(f.memory_budget_mb,
                                 root.OptionalInt("memory_budget_mb", 0));
      SLICELINE_ASSIGN_OR_RETURN(f.wait, root.OptionalBool("wait", true));
      break;
    }
    case RequestType::kAppendRows: {
      AppendRowsRequest& a = request.append_rows;
      SLICELINE_ASSIGN_OR_RETURN(a.dataset, root.RequireString("dataset"));
      SLICELINE_ASSIGN_OR_RETURN(a.xfer, root.OptionalString("xfer", ""));
      SLICELINE_ASSIGN_OR_RETURN(a.chunk, root.OptionalInt("chunk", 0));
      SLICELINE_ASSIGN_OR_RETURN(a.chunks, root.OptionalInt("chunks", 1));
      SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* rows,
                                 root.RequireArray("rows"));
      for (const obs::JsonValue& row : rows->array_items()) {
        if (!row.is_array()) {
          return Status::InvalidArgument("'rows' entries must be arrays");
        }
        std::vector<std::string> cells;
        cells.reserve(row.array_items().size());
        for (const obs::JsonValue& cell : row.array_items()) {
          if (!cell.is_string()) {
            return Status::InvalidArgument("row cells must be strings");
          }
          cells.push_back(cell.string_value());
        }
        a.rows.push_back(std::move(cells));
      }
      SLICELINE_ASSIGN_OR_RETURN(a.errors, root.RequireNumberArray("errors"));
      break;
    }
    case RequestType::kWatchDataset: {
      WatchRequest& w = request.watch;
      SLICELINE_ASSIGN_OR_RETURN(w.dataset, root.RequireString("dataset"));
      SLICELINE_ASSIGN_OR_RETURN(w.tau, root.OptionalNumber("tau", 1.0));
      SLICELINE_ASSIGN_OR_RETURN(w.hysteresis,
                                 root.OptionalNumber("hysteresis", 0.0));
      SLICELINE_ASSIGN_OR_RETURN(w.window_rows,
                                 root.OptionalInt("window_rows", 0));
      SLICELINE_ASSIGN_OR_RETURN(w.window_seconds,
                                 root.OptionalNumber("window_seconds", 0.0));
      SLICELINE_ASSIGN_OR_RETURN(w.k, root.OptionalInt("k", 4));
      SLICELINE_ASSIGN_OR_RETURN(w.alpha, root.OptionalNumber("alpha", 0.95));
      SLICELINE_ASSIGN_OR_RETURN(w.sigma, root.OptionalInt("sigma", 0));
      SLICELINE_ASSIGN_OR_RETURN(w.max_level,
                                 root.OptionalInt("max_level", 0));
      break;
    }
    case RequestType::kUnwatchDataset:
    case RequestType::kUnregisterDataset: {
      SLICELINE_ASSIGN_OR_RETURN(request.dataset,
                                 root.RequireString("dataset"));
      break;
    }
    case RequestType::kGetStatus: {
      // Two forms: job status ("job") and watch status ("dataset").
      if (root.Find("dataset") != nullptr) {
        SLICELINE_ASSIGN_OR_RETURN(request.dataset,
                                   root.RequireString("dataset"));
      } else {
        SLICELINE_ASSIGN_OR_RETURN(request.job_id, root.RequireInt("job"));
      }
      break;
    }
    case RequestType::kCancel:
    case RequestType::kGetReport:
    case RequestType::kGetTrace: {
      SLICELINE_ASSIGN_OR_RETURN(request.job_id, root.RequireInt("job"));
      break;
    }
    case RequestType::kListDatasets:
    case RequestType::kServerStats:
      break;
  }
  return request;
}

std::string SerializeRequest(const Request& request) {
  std::ostringstream os;
  obs::JsonWriter writer(os);
  writer.BeginObject();
  writer.Key("type");
  writer.String(RequestTypeName(request.type));
  if (!request.id.empty()) {
    writer.Key("id");
    writer.String(request.id);
  }
  switch (request.type) {
    case RequestType::kRegisterDataset: {
      const RegisterDatasetRequest& r = request.register_dataset;
      writer.Key("name");
      writer.String(r.name);
      writer.Key("csv");
      writer.String(r.csv_path);
      writer.Key("label");
      writer.String(r.label);
      writer.Key("task");
      writer.String(r.task);
      writer.Key("bins");
      writer.Int(r.bins);
      if (!r.drop.empty()) {
        writer.Key("drop");
        writer.BeginArray();
        for (const std::string& column : r.drop) writer.String(column);
        writer.EndArray();
      }
      break;
    }
    case RequestType::kFindSlices: {
      const FindSlicesRequest& f = request.find_slices;
      writer.Key("dataset");
      writer.String(f.dataset);
      writer.Key("engine");
      writer.String(f.engine);
      writer.Key("k");
      writer.Int(f.k);
      writer.Key("alpha");
      writer.Double(f.alpha);
      writer.Key("sigma");
      writer.Int(f.sigma);
      writer.Key("max_level");
      writer.Int(f.max_level);
      writer.Key("deadline_ms");
      writer.Int(f.deadline_ms);
      writer.Key("memory_budget_mb");
      writer.Int(f.memory_budget_mb);
      writer.Key("wait");
      writer.Bool(f.wait);
      break;
    }
    case RequestType::kAppendRows: {
      const AppendRowsRequest& a = request.append_rows;
      writer.Key("dataset");
      writer.String(a.dataset);
      if (!a.xfer.empty()) {
        writer.Key("xfer");
        writer.String(a.xfer);
      }
      writer.Key("chunk");
      writer.Int(a.chunk);
      writer.Key("chunks");
      writer.Int(a.chunks);
      writer.Key("rows");
      writer.BeginArray();
      for (const std::vector<std::string>& row : a.rows) {
        writer.BeginArray();
        for (const std::string& cell : row) writer.String(cell);
        writer.EndArray();
      }
      writer.EndArray();
      writer.Key("errors");
      writer.BeginArray();
      for (double error : a.errors) writer.Double(error);
      writer.EndArray();
      break;
    }
    case RequestType::kWatchDataset: {
      const WatchRequest& w = request.watch;
      writer.Key("dataset");
      writer.String(w.dataset);
      writer.Key("tau");
      writer.Double(w.tau);
      writer.Key("hysteresis");
      writer.Double(w.hysteresis);
      writer.Key("window_rows");
      writer.Int(w.window_rows);
      writer.Key("window_seconds");
      writer.Double(w.window_seconds);
      writer.Key("k");
      writer.Int(w.k);
      writer.Key("alpha");
      writer.Double(w.alpha);
      writer.Key("sigma");
      writer.Int(w.sigma);
      writer.Key("max_level");
      writer.Int(w.max_level);
      break;
    }
    case RequestType::kUnwatchDataset:
    case RequestType::kUnregisterDataset:
      writer.Key("dataset");
      writer.String(request.dataset);
      break;
    case RequestType::kGetStatus:
      if (!request.dataset.empty()) {
        writer.Key("dataset");
        writer.String(request.dataset);
        break;
      }
      writer.Key("job");
      writer.Int(request.job_id);
      break;
    case RequestType::kCancel:
    case RequestType::kGetReport:
    case RequestType::kGetTrace:
      writer.Key("job");
      writer.Int(request.job_id);
      break;
    case RequestType::kListDatasets:
    case RequestType::kServerStats:
      break;
  }
  writer.EndObject();
  os << '\n';
  return os.str();
}

std::string MakeErrorLine(const std::string& id, const Status& status) {
  std::ostringstream os;
  obs::JsonWriter writer(os);
  writer.BeginObject();
  writer.Key("id");
  writer.String(id);
  writer.Key("ok");
  writer.Bool(false);
  writer.Key("error");
  writer.BeginObject();
  writer.Key("code");
  writer.String(ErrorCodeForStatus(status));
  writer.Key("message");
  writer.String(status.message());
  writer.EndObject();
  writer.EndObject();
  os << '\n';
  return os.str();
}

void BeginOkResponse(obs::JsonWriter* writer, const std::string& id) {
  writer->BeginObject();
  writer->Key("id");
  writer->String(id);
  writer->Key("ok");
  writer->Bool(true);
}

void WriteResultJson(obs::JsonWriter* writer,
                     const core::SliceLineResult& result,
                     const std::vector<std::string>& feature_names) {
  writer->BeginObject();
  writer->Key("min_support");
  writer->Int(result.min_support);
  writer->Key("average_error");
  writer->Double(result.average_error);
  writer->Key("total_seconds");
  writer->Double(result.total_seconds);
  writer->Key("total_evaluated");
  writer->Int(result.total_evaluated);

  writer->Key("feature_names");
  writer->BeginArray();
  for (const std::string& name : feature_names) writer->String(name);
  writer->EndArray();

  writer->Key("top_k");
  writer->BeginArray();
  for (const core::Slice& slice : result.top_k) {
    writer->BeginObject();
    writer->Key("score");
    writer->Double(slice.stats.score);
    writer->Key("error_sum");
    writer->Double(slice.stats.error_sum);
    writer->Key("max_error");
    writer->Double(slice.stats.max_error);
    writer->Key("size");
    writer->Int(slice.stats.size);
    writer->Key("predicates");
    writer->BeginArray();
    for (const auto& [feature, code] : slice.predicates) {
      writer->BeginObject();
      writer->Key("feature");
      writer->Int(feature);
      writer->Key("code");
      writer->Int(code);
      writer->EndObject();
    }
    writer->EndArray();
    writer->EndObject();
  }
  writer->EndArray();

  writer->Key("levels");
  writer->BeginArray();
  for (const core::LevelStats& level : result.levels) {
    writer->BeginObject();
    writer->Key("level");
    writer->Int(level.level);
    writer->Key("candidates");
    writer->Int(level.candidates);
    writer->Key("valid");
    writer->Int(level.valid);
    writer->Key("pruned");
    writer->Int(level.pruned);
    writer->Key("seconds");
    writer->Double(level.seconds);
    writer->EndObject();
  }
  writer->EndArray();

  const RunOutcome& outcome = result.outcome;
  writer->Key("outcome");
  writer->BeginObject();
  writer->Key("termination");
  writer->String(TerminationNameOf(outcome.termination));
  writer->Key("partial");
  writer->Bool(outcome.partial);
  writer->Key("degradation_steps");
  writer->Int(outcome.degradation_steps);
  writer->Key("sigma_raised_to");
  writer->Int(outcome.sigma_raised_to);
  writer->Key("candidates_capped");
  writer->Int(outcome.candidates_capped);
  writer->Key("stopped_at_level");
  writer->Int(outcome.stopped_at_level);
  writer->Key("resumed_from_checkpoint");
  writer->Bool(outcome.resumed_from_checkpoint);
  writer->Key("peak_memory_bytes");
  writer->Int(outcome.peak_memory_bytes);
  writer->Key("dist_fallback_local");
  writer->Bool(outcome.dist_fallback_local);
  writer->Key("stream_candidates_cached");
  writer->Int(outcome.stream_candidates_cached);
  writer->Key("stream_candidates_delta");
  writer->Int(outcome.stream_candidates_delta);
  writer->Key("stream_candidates_full");
  writer->Int(outcome.stream_candidates_full);
  writer->Key("stream_full_fallback");
  writer->Bool(outcome.stream_full_fallback);
  writer->EndObject();

  writer->EndObject();
}

StatusOr<core::SliceLineResult> ParseResultJson(
    const obs::JsonValue& value, std::vector<std::string>* feature_names) {
  if (!value.is_object()) {
    return Status::InvalidArgument("result must be a JSON object");
  }
  core::SliceLineResult result;
  SLICELINE_ASSIGN_OR_RETURN(result.min_support,
                             value.RequireInt("min_support"));
  SLICELINE_ASSIGN_OR_RETURN(result.average_error,
                             value.RequireNumber("average_error"));
  SLICELINE_ASSIGN_OR_RETURN(result.total_seconds,
                             value.RequireNumber("total_seconds"));
  SLICELINE_ASSIGN_OR_RETURN(result.total_evaluated,
                             value.RequireInt("total_evaluated"));

  if (feature_names != nullptr) {
    feature_names->clear();
    if (value.Find("feature_names") != nullptr) {
      SLICELINE_ASSIGN_OR_RETURN(*feature_names,
                                 value.RequireStringArray("feature_names"));
    }
  }

  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* top_k,
                             value.RequireArray("top_k"));
  for (const obs::JsonValue& item : top_k->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("top_k entries must be objects");
    }
    core::Slice slice;
    SLICELINE_ASSIGN_OR_RETURN(slice.stats.score, item.RequireNumber("score"));
    SLICELINE_ASSIGN_OR_RETURN(slice.stats.error_sum,
                               item.RequireNumber("error_sum"));
    SLICELINE_ASSIGN_OR_RETURN(slice.stats.max_error,
                               item.RequireNumber("max_error"));
    SLICELINE_ASSIGN_OR_RETURN(slice.stats.size, item.RequireInt("size"));
    SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* predicates,
                               item.RequireArray("predicates"));
    for (const obs::JsonValue& predicate : predicates->array_items()) {
      if (!predicate.is_object()) {
        return Status::InvalidArgument("predicates must be objects");
      }
      SLICELINE_ASSIGN_OR_RETURN(const int32_t feature,
                                 predicate.RequireInt<int32_t>("feature"));
      SLICELINE_ASSIGN_OR_RETURN(const int32_t code,
                                 predicate.RequireInt<int32_t>("code"));
      slice.predicates.emplace_back(feature, code);
    }
    result.top_k.push_back(std::move(slice));
  }

  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* levels,
                             value.RequireArray("levels"));
  for (const obs::JsonValue& item : levels->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("levels entries must be objects");
    }
    core::LevelStats level;
    SLICELINE_ASSIGN_OR_RETURN(level.level,
                               item.RequireInt<int32_t>("level"));
    SLICELINE_ASSIGN_OR_RETURN(level.candidates,
                               item.RequireInt("candidates"));
    SLICELINE_ASSIGN_OR_RETURN(level.valid, item.RequireInt("valid"));
    SLICELINE_ASSIGN_OR_RETURN(level.pruned, item.RequireInt("pruned"));
    SLICELINE_ASSIGN_OR_RETURN(level.seconds, item.RequireNumber("seconds"));
    result.levels.push_back(level);
  }

  const obs::JsonValue* outcome = value.Find("outcome");
  if (outcome == nullptr || !outcome->is_object()) {
    return Status::InvalidArgument("missing 'outcome' object");
  }
  RunOutcome& out = result.outcome;
  SLICELINE_ASSIGN_OR_RETURN(const std::string termination,
                             outcome->RequireString("termination"));
  SLICELINE_ASSIGN_OR_RETURN(out.termination,
                             TerminationFromName(termination));
  out.partial = outcome->GetBoolOr("partial", false);
  out.degradation_steps =
      static_cast<int>(outcome->GetIntOr("degradation_steps", 0));
  out.sigma_raised_to = outcome->GetIntOr("sigma_raised_to", 0);
  out.candidates_capped = outcome->GetIntOr("candidates_capped", 0);
  out.stopped_at_level =
      static_cast<int>(outcome->GetIntOr("stopped_at_level", 0));
  out.resumed_from_checkpoint =
      outcome->GetBoolOr("resumed_from_checkpoint", false);
  out.peak_memory_bytes = outcome->GetIntOr("peak_memory_bytes", 0);
  out.dist_fallback_local = outcome->GetBoolOr("dist_fallback_local", false);
  out.stream_candidates_cached =
      outcome->GetIntOr("stream_candidates_cached", 0);
  out.stream_candidates_delta =
      outcome->GetIntOr("stream_candidates_delta", 0);
  out.stream_candidates_full = outcome->GetIntOr("stream_candidates_full", 0);
  out.stream_full_fallback = outcome->GetBoolOr("stream_full_fallback", false);

  return result;
}

}  // namespace sliceline::serve
