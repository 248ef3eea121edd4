#include "serve/worker_protocol.h"

#include <sstream>

#include "serve/protocol.h"

namespace sliceline::serve {

namespace {

void WriteDoubleArray(obs::JsonWriter* writer, const char* key,
                      const std::vector<double>& values) {
  writer->Key(key);
  writer->BeginArray();
  for (double v : values) writer->Double(v);
  writer->EndArray();
}

}  // namespace

const char* WorkerRequestTypeName(WorkerRequestType type) {
  switch (type) {
    case WorkerRequestType::kEnlist: return "enlist";
    case WorkerRequestType::kHasShard: return "has_shard";
    case WorkerRequestType::kLoadShard: return "load_shard";
    case WorkerRequestType::kBasicStats: return "basic_stats";
    case WorkerRequestType::kEvalBlock: return "eval_block";
    case WorkerRequestType::kHeartbeat: return "heartbeat";
    case WorkerRequestType::kGetSpans: return "get_spans";
    case WorkerRequestType::kShutdown: return "shutdown";
  }
  return "unknown";
}

StatusOr<WorkerRequestType> WorkerRequestTypeFromName(
    const std::string& name) {
  for (WorkerRequestType t :
       {WorkerRequestType::kEnlist, WorkerRequestType::kHasShard,
        WorkerRequestType::kLoadShard, WorkerRequestType::kBasicStats,
        WorkerRequestType::kEvalBlock, WorkerRequestType::kHeartbeat,
        WorkerRequestType::kGetSpans, WorkerRequestType::kShutdown}) {
    if (name == WorkerRequestTypeName(t)) return t;
  }
  return Status::InvalidArgument("unknown worker request type '" + name +
                                 "'");
}

StatusOr<WorkerRequest> ParseWorkerRequest(const std::string& line) {
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue root,
                             ParseRequestObject(line));

  WorkerRequest request;
  SLICELINE_ASSIGN_OR_RETURN(const std::string type_name,
                             root.RequireString("type"));
  SLICELINE_ASSIGN_OR_RETURN(request.type,
                             WorkerRequestTypeFromName(type_name));
  SLICELINE_ASSIGN_OR_RETURN(request.id, root.OptionalString("id", ""));
  if (root.Find("trace") != nullptr) {
    SLICELINE_ASSIGN_OR_RETURN(request.trace_id,
                               root.RequireUint64String("trace"));
  }
  SLICELINE_ASSIGN_OR_RETURN(request.parent_span_id,
                             root.OptionalInt("pspan", 0));

  switch (request.type) {
    case WorkerRequestType::kEnlist: {
      SLICELINE_ASSIGN_OR_RETURN(request.protocol,
                                 root.OptionalInt("protocol", 0));
      break;
    }
    case WorkerRequestType::kHeartbeat:
    case WorkerRequestType::kGetSpans:
    case WorkerRequestType::kShutdown:
      break;
    case WorkerRequestType::kHasShard:
    case WorkerRequestType::kBasicStats: {
      SLICELINE_ASSIGN_OR_RETURN(request.dataset_hash,
                                 root.RequireString("dataset"));
      SLICELINE_ASSIGN_OR_RETURN(request.shard, root.RequireInt("shard"));
      break;
    }
    case WorkerRequestType::kLoadShard: {
      SLICELINE_ASSIGN_OR_RETURN(request.dataset_hash,
                                 root.RequireString("dataset"));
      SLICELINE_ASSIGN_OR_RETURN(request.shard, root.RequireInt("shard"));
      LoadShardChunk& c = request.chunk;
      SLICELINE_ASSIGN_OR_RETURN(c.row_begin, root.RequireInt("row_begin"));
      SLICELINE_ASSIGN_OR_RETURN(c.row_end, root.RequireInt("row_end"));
      SLICELINE_ASSIGN_OR_RETURN(c.chunk, root.RequireInt("chunk"));
      SLICELINE_ASSIGN_OR_RETURN(c.chunks, root.RequireInt("chunks"));
      SLICELINE_ASSIGN_OR_RETURN(c.chunk_row_begin,
                                 root.RequireInt("chunk_row_begin"));
      SLICELINE_ASSIGN_OR_RETURN(c.cols, root.RequireInt("cols"));
      SLICELINE_ASSIGN_OR_RETURN(c.codes,
                                 root.RequireIntArray<int32_t>("codes"));
      SLICELINE_ASSIGN_OR_RETURN(c.errors, root.RequireNumberArray("errors"));
      if (root.Find("fdom") != nullptr) {
        SLICELINE_ASSIGN_OR_RETURN(c.fdom,
                                   root.RequireIntArray<int32_t>("fdom"));
      }
      break;
    }
    case WorkerRequestType::kEvalBlock: {
      SLICELINE_ASSIGN_OR_RETURN(request.dataset_hash,
                                 root.RequireString("dataset"));
      SLICELINE_ASSIGN_OR_RETURN(request.shard, root.RequireInt("shard"));
      SLICELINE_ASSIGN_OR_RETURN(request.strategy,
                                 root.OptionalString("strategy", "index"));
      SLICELINE_ASSIGN_OR_RETURN(request.block_size,
                                 root.OptionalInt("block_size", 16));
      SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* slices,
                                 root.RequireArray("slices"));
      for (const obs::JsonValue& slice : slices->array_items()) {
        if (!slice.is_array()) {
          return Status::InvalidArgument(
              "field 'slices' must contain arrays of column ids");
        }
        std::vector<int64_t> columns;
        columns.reserve(slice.array_items().size());
        for (const obs::JsonValue& column : slice.array_items()) {
          SLICELINE_ASSIGN_OR_RETURN(const int64_t id,
                                     column.AsInt("slice column id"));
          columns.push_back(id);
        }
        request.slices.Add(columns);
      }
      break;
    }
  }
  return request;
}

std::string SerializeWorkerRequest(const WorkerRequest& request) {
  std::ostringstream os;
  obs::JsonWriter writer(os);
  writer.BeginObject();
  writer.Key("type");
  writer.String(WorkerRequestTypeName(request.type));
  if (!request.id.empty()) {
    writer.Key("id");
    writer.String(request.id);
  }
  if (request.trace_id != 0) {
    writer.Key("trace");
    writer.String(std::to_string(request.trace_id));
  }
  if (request.parent_span_id != 0) {
    writer.Key("pspan");
    writer.Int(request.parent_span_id);
  }
  switch (request.type) {
    case WorkerRequestType::kEnlist:
      writer.Key("protocol");
      writer.Int(request.protocol);
      break;
    case WorkerRequestType::kHeartbeat:
    case WorkerRequestType::kGetSpans:
    case WorkerRequestType::kShutdown:
      break;
    case WorkerRequestType::kHasShard:
    case WorkerRequestType::kBasicStats:
      writer.Key("dataset");
      writer.String(request.dataset_hash);
      writer.Key("shard");
      writer.Int(request.shard);
      break;
    case WorkerRequestType::kLoadShard: {
      writer.Key("dataset");
      writer.String(request.dataset_hash);
      writer.Key("shard");
      writer.Int(request.shard);
      const LoadShardChunk& c = request.chunk;
      writer.Key("row_begin");
      writer.Int(c.row_begin);
      writer.Key("row_end");
      writer.Int(c.row_end);
      writer.Key("chunk");
      writer.Int(c.chunk);
      writer.Key("chunks");
      writer.Int(c.chunks);
      writer.Key("chunk_row_begin");
      writer.Int(c.chunk_row_begin);
      writer.Key("cols");
      writer.Int(c.cols);
      writer.Key("codes");
      writer.BeginArray();
      for (int32_t code : c.codes) writer.Int(code);
      writer.EndArray();
      WriteDoubleArray(&writer, "errors", c.errors);
      if (!c.fdom.empty()) {
        writer.Key("fdom");
        writer.BeginArray();
        for (int32_t d : c.fdom) writer.Int(d);
        writer.EndArray();
      }
      break;
    }
    case WorkerRequestType::kEvalBlock: {
      writer.Key("dataset");
      writer.String(request.dataset_hash);
      writer.Key("shard");
      writer.Int(request.shard);
      writer.Key("strategy");
      writer.String(request.strategy);
      writer.Key("block_size");
      writer.Int(request.block_size);
      writer.Key("slices");
      writer.BeginArray();
      for (int64_t i = 0; i < request.slices.size(); ++i) {
        writer.BeginArray();
        const int64_t* columns = request.slices.Columns(i);
        for (int64_t j = 0; j < request.slices.Length(i); ++j) {
          writer.Int(columns[j]);
        }
        writer.EndArray();
      }
      writer.EndArray();
      break;
    }
  }
  writer.EndObject();
  os << '\n';
  return os.str();
}

void WriteEvalPayload(obs::JsonWriter* writer, const core::EvalResult& result,
                      uint64_t checksum) {
  WriteDoubleArray(writer, "sizes", result.sizes);
  WriteDoubleArray(writer, "error_sums", result.error_sums);
  WriteDoubleArray(writer, "max_errors", result.max_errors);
  writer->Key("checksum");
  writer->String(std::to_string(checksum));
}

StatusOr<core::EvalResult> ParseEvalPayload(const obs::JsonValue& response,
                                            uint64_t* checksum) {
  core::EvalResult result;
  SLICELINE_ASSIGN_OR_RETURN(result.sizes,
                             response.RequireNumberArray("sizes"));
  SLICELINE_ASSIGN_OR_RETURN(result.error_sums,
                             response.RequireNumberArray("error_sums"));
  SLICELINE_ASSIGN_OR_RETURN(result.max_errors,
                             response.RequireNumberArray("max_errors"));
  SLICELINE_ASSIGN_OR_RETURN(*checksum,
                             response.RequireUint64String("checksum"));
  return result;
}

void WriteBasicStatsPayload(obs::JsonWriter* writer,
                            const ShardBasicStats& stats) {
  writer->Key("n");
  writer->Int(stats.n);
  writer->Key("total_error");
  writer->Double(stats.total_error);
  writer->Key("sizes");
  writer->BeginArray();
  for (int64_t size : stats.sizes) writer->Int(size);
  writer->EndArray();
  WriteDoubleArray(writer, "error_sums", stats.error_sums);
  WriteDoubleArray(writer, "max_errors", stats.max_errors);
}

StatusOr<ShardBasicStats> ParseBasicStatsPayload(
    const obs::JsonValue& response) {
  ShardBasicStats stats;
  SLICELINE_ASSIGN_OR_RETURN(stats.n, response.RequireInt("n"));
  SLICELINE_ASSIGN_OR_RETURN(stats.total_error,
                             response.RequireNumber("total_error"));
  SLICELINE_ASSIGN_OR_RETURN(stats.sizes, response.RequireIntArray("sizes"));
  SLICELINE_ASSIGN_OR_RETURN(stats.error_sums,
                             response.RequireNumberArray("error_sums"));
  SLICELINE_ASSIGN_OR_RETURN(stats.max_errors,
                             response.RequireNumberArray("max_errors"));
  if (stats.sizes.size() != stats.error_sums.size() ||
      stats.sizes.size() != stats.max_errors.size()) {
    return Status::InvalidArgument("basic stats arrays disagree on length");
  }
  return stats;
}

void WriteSpansPayload(
    obs::JsonWriter* writer, const std::vector<obs::RemoteSpan>& spans,
    const std::vector<std::pair<std::string, double>>& counters) {
  writer->Key("spans");
  writer->BeginArray();
  for (const obs::RemoteSpan& span : spans) {
    writer->BeginObject();
    writer->Key("name");
    writer->String(span.name);
    writer->Key("cat");
    writer->String(span.category);
    writer->Key("ph");
    writer->String(std::string(1, span.phase));
    writer->Key("ts");
    writer->Int(span.ts_us);
    writer->Key("dur");
    writer->Int(span.dur_us);
    writer->Key("tid");
    writer->Int(span.tid);
    if (span.has_arg) {
      writer->Key("v");
      writer->Int(span.arg);
    }
    if (!span.detail.empty()) {
      writer->Key("detail");
      writer->String(span.detail);
    }
    if (span.trace_id != 0) {
      writer->Key("trace");
      writer->String(std::to_string(span.trace_id));
    }
    if (span.parent_span_id != 0) {
      writer->Key("pspan");
      writer->Int(span.parent_span_id);
    }
    writer->EndObject();
  }
  writer->EndArray();
  writer->Key("counters");
  writer->BeginArray();
  for (const auto& [name, value] : counters) {
    writer->BeginObject();
    writer->Key("name");
    writer->String(name);
    writer->Key("value");
    writer->Double(value);
    writer->EndObject();
  }
  writer->EndArray();
}

Status ParseSpansPayload(
    const obs::JsonValue& response, std::vector<obs::RemoteSpan>* spans,
    std::vector<std::pair<std::string, double>>* counters) {
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* span_array,
                             response.RequireArray("spans"));
  spans->clear();
  spans->reserve(span_array->array_items().size());
  for (const obs::JsonValue& item : span_array->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("field 'spans' must contain objects");
    }
    obs::RemoteSpan span;
    SLICELINE_ASSIGN_OR_RETURN(span.name, item.RequireString("name"));
    span.category = item.GetStringOr("cat", "sliceline");
    SLICELINE_ASSIGN_OR_RETURN(const std::string phase,
                               item.RequireString("ph"));
    if (phase.size() != 1) {
      return Status::InvalidArgument("span phase must be one character");
    }
    span.phase = phase[0];
    SLICELINE_ASSIGN_OR_RETURN(span.ts_us, item.RequireInt("ts"));
    span.dur_us = item.GetIntOr("dur", 0);
    span.tid = item.GetIntOr("tid", 0);
    if (item.Find("v") != nullptr) {
      span.has_arg = true;
      SLICELINE_ASSIGN_OR_RETURN(span.arg, item.RequireInt("v"));
    }
    span.detail = item.GetStringOr("detail", "");
    if (item.Find("trace") != nullptr) {
      SLICELINE_ASSIGN_OR_RETURN(span.trace_id,
                                 item.RequireUint64String("trace"));
    }
    span.parent_span_id = item.GetIntOr("pspan", 0);
    spans->push_back(std::move(span));
  }
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* counter_array,
                             response.RequireArray("counters"));
  counters->clear();
  counters->reserve(counter_array->array_items().size());
  for (const obs::JsonValue& item : counter_array->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("field 'counters' must contain objects");
    }
    SLICELINE_ASSIGN_OR_RETURN(std::string name, item.RequireString("name"));
    SLICELINE_ASSIGN_OR_RETURN(const double value,
                               item.RequireNumber("value"));
    counters->emplace_back(std::move(name), value);
  }
  return Status::OK();
}

}  // namespace sliceline::serve
