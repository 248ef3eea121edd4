#ifndef SLICELINE_SERVE_WORKER_PROTOCOL_H_
#define SLICELINE_SERVE_WORKER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/evaluator.h"
#include "obs/json_parse.h"
#include "obs/json_writer.h"
#include "obs/trace_merge.h"

namespace sliceline::serve {

/// Wire protocol between the distributed coordinator and sliceline_worker
/// processes: the same newline-delimited strict-JSON framing as the client
/// protocol (protocol.h), with its own message set and a larger line guard
/// because shard payloads (chunked one-hot codes, eval blocks) legitimately
/// exceed the client protocol's 1 MiB limit.
///
/// Responses reuse the client protocol's shapes exactly:
///   {"id":..., "ok":true, ...payload...}
///   {"id":..., "ok":false, "error":{"code":"...", "message":"..."}}
/// so MakeErrorLine / ErrorCodeForStatus / StatusFromError are shared.

inline constexpr int kWorkerProtocolVersion = 1;

/// Per-line guard of the worker protocol. load_shard chunks are sized by
/// the coordinator to stay well under this; eval_block responses carry
/// 3 doubles per slice (< 100 bytes each at %.17g).
inline constexpr size_t kWorkerMaxLineBytes = 8u << 20;

enum class WorkerRequestType {
  /// Handshake: carries the coordinator's protocol version; the response
  /// carries the worker's "session" string, which changes whenever the
  /// worker process restarts. A coordinator that reconnects and sees a new
  /// session knows every previously shipped shard is gone.
  kEnlist,
  /// Fingerprint probe: does this session hold (dataset_hash, shard)?
  /// Response: {"loaded": bool}. Lets a reconnect skip re-shipping.
  kHasShard,
  /// One chunk of a shard's rows (codes row-major + aligned errors). Chunk 0
  /// additionally carries the coordinator's global feature domains (fdom),
  /// so the worker reconstructs the exact same one-hot column space as the
  /// driver -- a shard may not observe every code. Response:
  /// {"loaded": bool} (true once the final chunk lands and the shard's
  /// evaluator is built).
  kLoadShard,
  /// Level-1 statistics of a loaded shard (Equation 4 on the shard's rows):
  /// {"n", "total_error", "sizes", "error_sums", "max_errors"}.
  kBasicStats,
  /// Evaluate a block of candidate slices on a loaded shard. Response:
  /// {"sizes", "error_sums", "max_errors", "checksum"} aligned with the
  /// request's slice order.
  kEvalBlock,
  /// Liveness probe; response is a bare ok (plus the worker's steady-clock
  /// "now_us", which the coordinator uses for clock-offset estimation).
  kHeartbeat,
  /// Drains the worker's trace-span buffer and metrics-counter deltas for
  /// the fleet-trace merge. Response: {"now_us", "pid", "spans":[...],
  /// "counters":[...]} (see WriteSpansPayload).
  kGetSpans,
  /// Orderly termination; the worker acknowledges, then exits its loop.
  kShutdown,
};

const char* WorkerRequestTypeName(WorkerRequestType type);
StatusOr<WorkerRequestType> WorkerRequestTypeFromName(const std::string& name);

/// One chunk of a load_shard transfer. Rows [chunk_row_begin,
/// chunk_row_begin + rows) of the shard's [row_begin, row_end) range.
struct LoadShardChunk {
  int64_t row_begin = 0;   ///< shard range in driver row space
  int64_t row_end = 0;
  int64_t chunk = 0;       ///< 0-based chunk index
  int64_t chunks = 1;      ///< total chunks of this transfer
  int64_t chunk_row_begin = 0;  ///< absolute first row of this chunk
  int64_t cols = 0;        ///< feature count (codes is rows x cols)
  std::vector<int32_t> codes;   ///< row-major 1-based feature codes
  std::vector<double> errors;   ///< aligned per-row errors
  std::vector<int32_t> fdom;    ///< global feature domains; chunk 0 only
};

/// One parsed coordinator->worker request line.
struct WorkerRequest {
  WorkerRequestType type = WorkerRequestType::kHeartbeat;
  std::string id;  ///< correlation id echoed in the response
  int64_t protocol = kWorkerProtocolVersion;  ///< enlist only

  /// Distributed-trace context, optional on every request (wire keys
  /// "trace" -- a decimal string, 64-bit ids do not survive JSON doubles --
  /// and "pspan"). A worker receiving a nonzero trace id stamps the spans
  /// it records while handling the request with it.
  uint64_t trace_id = 0;
  int64_t parent_span_id = 0;

  /// Content fingerprint of the full dataset (decimal string: 64-bit hashes
  /// do not survive JSON's double number representation) + shard index;
  /// present on has_shard / load_shard / basic_stats / eval_block.
  std::string dataset_hash;
  int64_t shard = -1;

  LoadShardChunk chunk;  ///< load_shard only

  // -- eval_block only ------------------------------------------------------
  core::SliceSet slices;
  std::string strategy = "index";  ///< "index" | "scan" | "bitset"
  int64_t block_size = 16;         ///< scan-shared block size b
};

/// Decodes one worker request line (one ParseRequestObject scan).
StatusOr<WorkerRequest> ParseWorkerRequest(const std::string& line);

/// Encodes `request` as one LF-terminated line (coordinator side).
std::string SerializeWorkerRequest(const WorkerRequest& request);

// -- response payload helpers ------------------------------------------------

/// Writes the eval_block payload keys ("sizes"/"error_sums"/"max_errors"
/// arrays + "checksum" decimal string) at the current writer position. The
/// checksum is computed by the sender over the payload (ChecksumPartial);
/// doubles go through %.17g, so the receiver recomputes it bit-exactly.
void WriteEvalPayload(obs::JsonWriter* writer, const core::EvalResult& result,
                      uint64_t checksum);

/// Inverse of WriteEvalPayload. Returns the decoded partial and stores the
/// sender's checksum in `checksum` (validated by the caller, which owns the
/// checksum function).
StatusOr<core::EvalResult> ParseEvalPayload(const obs::JsonValue& response,
                                            uint64_t* checksum);

/// Level-1 statistics of one shard, shipped once per (worker, shard).
struct ShardBasicStats {
  int64_t n = 0;
  double total_error = 0.0;
  std::vector<int64_t> sizes;
  std::vector<double> error_sums;
  std::vector<double> max_errors;
};

void WriteBasicStatsPayload(obs::JsonWriter* writer,
                            const ShardBasicStats& stats);
StatusOr<ShardBasicStats> ParseBasicStatsPayload(
    const obs::JsonValue& response);

/// Writes the get_spans payload keys at the current writer position:
/// "spans" (array of span objects: name/cat/ph/ts/dur/tid, optional
/// v/detail/trace/pspan) and "counters" (array of {"name","value"} metric
/// deltas).
void WriteSpansPayload(
    obs::JsonWriter* writer, const std::vector<obs::RemoteSpan>& spans,
    const std::vector<std::pair<std::string, double>>& counters);

/// Inverse of WriteSpansPayload (coordinator side).
Status ParseSpansPayload(const obs::JsonValue& response,
                         std::vector<obs::RemoteSpan>* spans,
                         std::vector<std::pair<std::string, double>>* counters);

}  // namespace sliceline::serve

#endif  // SLICELINE_SERVE_WORKER_PROTOCOL_H_
