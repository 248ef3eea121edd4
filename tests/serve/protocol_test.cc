// Wire-protocol round trips: request encode/decode (client and worker
// protocols), structured error mapping, and the exact (bit-for-bit double)
// result serialization that lets a client reproduce core::FormatResult
// output from a response.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/report.h"
#include "core/sliceline.h"
#include "obs/json_parse.h"
#include "obs/json_validate.h"
#include "obs/json_writer.h"
#include "serve/worker_protocol.h"

namespace sliceline::serve {
namespace {

TEST(ServeProtocolTest, RequestTypeNamesRoundTrip) {
  for (RequestType type :
       {RequestType::kRegisterDataset, RequestType::kFindSlices,
        RequestType::kGetStatus, RequestType::kCancel,
        RequestType::kGetReport, RequestType::kGetTrace,
        RequestType::kListDatasets, RequestType::kServerStats}) {
    auto parsed = RequestTypeFromName(RequestTypeName(type));
    ASSERT_TRUE(parsed.ok()) << RequestTypeName(type);
    EXPECT_EQ(parsed.value(), type);
  }
  EXPECT_FALSE(RequestTypeFromName("no_such_request").ok());
}

TEST(ServeProtocolTest, RegisterRequestRoundTrips) {
  Request request;
  request.type = RequestType::kRegisterDataset;
  request.id = "r1";
  request.register_dataset.name = "adult";
  request.register_dataset.csv_path = "/data/adult.csv";
  request.register_dataset.label = "income";
  request.register_dataset.task = "class";
  request.register_dataset.bins = 7;
  request.register_dataset.drop = {"fnlwgt", "education-num"};

  const std::string line = SerializeRequest(request);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_TRUE(obs::ValidateStrictJson(line).empty());

  auto parsed = ParseRequest(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, RequestType::kRegisterDataset);
  EXPECT_EQ(parsed->id, "r1");
  EXPECT_EQ(parsed->register_dataset.name, "adult");
  EXPECT_EQ(parsed->register_dataset.csv_path, "/data/adult.csv");
  EXPECT_EQ(parsed->register_dataset.label, "income");
  EXPECT_EQ(parsed->register_dataset.task, "class");
  EXPECT_EQ(parsed->register_dataset.bins, 7);
  EXPECT_EQ(parsed->register_dataset.drop,
            (std::vector<std::string>{"fnlwgt", "education-num"}));
}

TEST(ServeProtocolTest, FindSlicesRequestRoundTrips) {
  Request request;
  request.type = RequestType::kFindSlices;
  request.id = "f2";
  request.find_slices.dataset = "adult";
  request.find_slices.engine = "la";
  request.find_slices.k = 7;
  request.find_slices.alpha = 0.875;
  request.find_slices.sigma = 64;
  request.find_slices.max_level = 3;
  request.find_slices.deadline_ms = 1500;
  request.find_slices.memory_budget_mb = 256;
  request.find_slices.wait = false;

  auto parsed = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const FindSlicesRequest& f = parsed->find_slices;
  EXPECT_EQ(f.dataset, "adult");
  EXPECT_EQ(f.engine, "la");
  EXPECT_EQ(f.k, 7);
  EXPECT_EQ(f.alpha, 0.875);
  EXPECT_EQ(f.sigma, 64);
  EXPECT_EQ(f.max_level, 3);
  EXPECT_EQ(f.deadline_ms, 1500);
  EXPECT_EQ(f.memory_budget_mb, 256);
  EXPECT_FALSE(f.wait);
}

TEST(ServeProtocolTest, FindSlicesDefaultsApply) {
  auto parsed =
      ParseRequest("{\"type\":\"find_slices\",\"dataset\":\"d\"}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, "");
  EXPECT_EQ(parsed->find_slices.engine, "native");
  EXPECT_EQ(parsed->find_slices.k, 4);
  EXPECT_EQ(parsed->find_slices.alpha, 0.95);
  EXPECT_EQ(parsed->find_slices.sigma, 0);
  EXPECT_TRUE(parsed->find_slices.wait);
}

TEST(ServeProtocolTest, JobAddressedRequestsRoundTrip) {
  // status/cancel/report/trace all carry exactly {type, id, job}.
  for (RequestType type :
       {RequestType::kGetStatus, RequestType::kCancel,
        RequestType::kGetReport, RequestType::kGetTrace}) {
    Request request;
    request.type = type;
    request.id = "s3";
    request.job_id = 42;
    const std::string line = SerializeRequest(request);
    EXPECT_TRUE(obs::ValidateStrictJson(line).empty()) << line;
    auto parsed = ParseRequest(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->type, type);
    EXPECT_EQ(parsed->id, "s3");
    EXPECT_EQ(parsed->job_id, 42);
  }
}

TEST(ServeProtocolTest, ReportAndTraceRequireJobId) {
  for (const char* type : {"get_report", "get_trace"}) {
    EXPECT_FALSE(
        ParseRequest(std::string("{\"type\":\"") + type + "\"}\n").ok())
        << type;
  }
}

TEST(ServeProtocolTest, UnknownFieldsAreIgnored) {
  auto parsed = ParseRequest(
      "{\"type\":\"server_stats\",\"id\":\"x\",\"future_field\":[1,2]}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, RequestType::kServerStats);
}

TEST(ServeProtocolTest, MalformedRequestsAreRejected) {
  const char* bad_lines[] = {
      "not json at all\n",
      "[1,2,3]\n",                            // not an object
      "{\"id\":\"x\"}\n",                     // missing type
      "{\"type\":\"launch_missiles\"}\n",     // unknown type
      "{\"type\":\"find_slices\"}\n",         // missing dataset
      "{\"type\":\"get_status\"}\n",          // missing job
      "{\"type\":\"find_slices\",\"dataset\":\"d\",\"k\":\"four\"}\n",
      "{\"type\":\"register_dataset\",\"name\":\"n\",\"csv\":\"c\","
      "\"label\":\"l\",\"drop\":\"oops\"}\n",  // drop must be an array
      "{\"type\":\"find_slices\",\"dataset\":\"d\",}\n",  // trailing comma
      // Integer fields take integral numbers inside int64, never a cast.
      "{\"type\":\"get_status\",\"job\":1e300}\n",
      "{\"type\":\"get_status\",\"job\":2.5}\n",
      "{\"type\":\"find_slices\",\"dataset\":\"d\",\"k\":-1e300}\n",
      "{\"type\":\"cancel\",\"job\":1,\"job\":2}\n",  // duplicate key
  };
  for (const char* line : bad_lines) {
    auto parsed = ParseRequest(line);
    EXPECT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
  // Every JSON-level error carries the same prefix, duplicate keys included.
  for (const char* line : {"not json at all\n",
                           "{\"type\":\"cancel\",\"job\":1,\"job\":2}\n"}) {
    EXPECT_EQ(ParseRequest(line).status().message().rfind(
                  "malformed request: ", 0),
              0u)
        << line;
  }
}

TEST(WorkerProtocolTest, MalformedRequestsAreRejected) {
  const char* bad_lines[] = {
      "{\"type\":\"heartbeat\",}\n",  // trailing comma
      "{\"type\":\"heartbeat\",\"id\":\"a\",\"id\":\"b\"}\n",  // duplicate
      "{\"type\":\"has_shard\",\"dataset\":\"d\",\"shard\":-1e30}\n",
      "{\"type\":\"has_shard\",\"dataset\":\"d\",\"shard\":0.5}\n",
      "{\"type\":\"heartbeat\",\"pspan\":1e300}\n",
      "{\"type\":\"heartbeat\",\"trace\":\"99999999999999999999999\"}\n",
      // Mistyped optional fields are errors, not silent defaults.
      "{\"type\":\"enlist\",\"protocol\":\"1\"}\n",
      "{\"type\":\"heartbeat\",\"pspan\":\"7\"}\n",
      "{\"type\":\"eval_block\",\"dataset\":\"d\",\"shard\":0,"
      "\"block_size\":\"x\",\"slices\":[[1]]}\n",
      "{\"type\":\"eval_block\",\"dataset\":\"d\",\"shard\":0,"
      "\"strategy\":7,\"slices\":[[1]]}\n",
      // Slice column ids and shard codes are range-checked integers.
      "{\"type\":\"eval_block\",\"dataset\":\"d\",\"shard\":0,"
      "\"slices\":[[1e300]]}\n",
      "{\"type\":\"eval_block\",\"dataset\":\"d\",\"shard\":0,"
      "\"slices\":[[1.5]]}\n",
      "{\"type\":\"load_shard\",\"dataset\":\"d\",\"shard\":0,"
      "\"row_begin\":0,\"row_end\":1,\"chunk\":0,\"chunks\":1,"
      "\"chunk_row_begin\":0,\"cols\":1,\"codes\":[3e9],\"errors\":[0]}\n",
  };
  for (const char* line : bad_lines) {
    auto parsed = ParseWorkerRequest(line);
    EXPECT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
  EXPECT_EQ(ParseWorkerRequest(bad_lines[1]).status().message().rfind(
                "malformed request: ", 0),
            0u);
  // Control: the same fields with well-typed, in-range values decode.
  auto good = ParseWorkerRequest(
      "{\"type\":\"eval_block\",\"dataset\":\"d\",\"shard\":0,"
      "\"strategy\":\"scan\",\"block_size\":8,\"pspan\":7,"
      "\"trace\":\"18446744073709551615\",\"slices\":[[1,5]]}\n");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->trace_id, 18446744073709551615ull);
  EXPECT_EQ(good->block_size, 8);
  EXPECT_EQ(good->slices.Columns(0)[1], 5);
}

TEST(ServeProtocolTest, ErrorCodesRoundTripThroughErrorLines) {
  const Status statuses[] = {
      Status::InvalidArgument("bad"),
      Status(StatusCode::kOutOfRange, "range"),
      Status::NotFound("missing"),
      Status(StatusCode::kIoError, "io"),
      Status(StatusCode::kNotImplemented, "todo"),
      Status::Internal("bug"),
      Status::Cancelled("stop"),
      Status(StatusCode::kDeadlineExceeded, "late"),
      Status::ResourceExhausted("full"),
  };
  for (const Status& status : statuses) {
    const std::string line = MakeErrorLine("e7", status);
    EXPECT_TRUE(obs::ValidateStrictJson(line).empty()) << line;
    auto parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed->GetStringOr("id", ""), "e7");
    EXPECT_FALSE(parsed->GetBoolOr("ok", true));
    const obs::JsonValue* error = parsed->Find("error");
    ASSERT_NE(error, nullptr);
    const Status round = StatusFromError(error->GetStringOr("code", ""),
                                         error->GetStringOr("message", ""));
    EXPECT_EQ(round.code(), status.code()) << status.ToString();
    EXPECT_EQ(round.message(), status.message());
  }
}

TEST(ServeProtocolTest, UnknownErrorCodeMapsToInternal) {
  const Status status = StatusFromError("quantum_flux", "what");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("quantum_flux"), std::string::npos);
}

/// A result exercising every serialized field with doubles that do not
/// survive naive formatting (the %.17g writer + strtod parser must
/// reproduce them bit-for-bit).
core::SliceLineResult MakeAwkwardResult() {
  core::SliceLineResult result;
  result.min_support = 32;
  result.average_error = 1.0 / 3.0;
  result.total_seconds = 0.1 + 0.2;  // 0.30000000000000004
  result.total_evaluated = 123;

  core::Slice first;
  first.predicates = {{0, 2}, {3, 1}};
  first.stats.score = 0.1;
  first.stats.error_sum = 6.02214076e23;
  first.stats.max_error = 1e-300;
  first.stats.size = 40;
  result.top_k.push_back(first);

  core::Slice second;
  second.predicates = {{2, 4}};
  second.stats.score = -2.0 / 7.0;
  second.stats.error_sum = 111.11111111111111;
  second.stats.max_error = 2.7755575615628914e-17;
  second.stats.size = 17;
  result.top_k.push_back(second);

  core::LevelStats level;
  level.level = 1;
  level.candidates = 10;
  level.valid = 8;
  level.pruned = 2;
  level.seconds = 0.001953125;
  result.levels.push_back(level);
  level.level = 2;
  level.candidates = 45;
  level.valid = 12;
  level.pruned = 33;
  level.seconds = 1.0 / 1024.0;
  result.levels.push_back(level);

  result.outcome.termination = RunOutcome::Termination::kDegraded;
  result.outcome.partial = true;
  result.outcome.degradation_steps = 2;
  result.outcome.sigma_raised_to = 64;
  result.outcome.candidates_capped = 1000;
  result.outcome.stopped_at_level = 2;
  result.outcome.resumed_from_checkpoint = true;
  result.outcome.peak_memory_bytes = 1 << 22;
  return result;
}

TEST(ServeProtocolTest, ResultJsonRoundTripsBitForBit) {
  const core::SliceLineResult original = MakeAwkwardResult();
  const std::vector<std::string> names = {"age", "sex", "degree", "marital"};

  std::ostringstream os;
  obs::JsonWriter writer(os);
  WriteResultJson(&writer, original, names);
  const std::string json = os.str();
  EXPECT_TRUE(obs::ValidateStrictJson(json).empty()) << json;

  auto value = obs::ParseJson(json);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  std::vector<std::string> parsed_names;
  auto parsed = ParseResultJson(value.value(), &parsed_names);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed_names, names);
  EXPECT_EQ(parsed->min_support, original.min_support);
  EXPECT_EQ(parsed->average_error, original.average_error);
  EXPECT_EQ(parsed->total_seconds, original.total_seconds);
  EXPECT_EQ(parsed->total_evaluated, original.total_evaluated);

  ASSERT_EQ(parsed->top_k.size(), original.top_k.size());
  for (size_t i = 0; i < original.top_k.size(); ++i) {
    EXPECT_EQ(parsed->top_k[i].predicates, original.top_k[i].predicates);
    EXPECT_EQ(parsed->top_k[i].stats.score, original.top_k[i].stats.score);
    EXPECT_EQ(parsed->top_k[i].stats.error_sum,
              original.top_k[i].stats.error_sum);
    EXPECT_EQ(parsed->top_k[i].stats.max_error,
              original.top_k[i].stats.max_error);
    EXPECT_EQ(parsed->top_k[i].stats.size, original.top_k[i].stats.size);
  }

  ASSERT_EQ(parsed->levels.size(), original.levels.size());
  for (size_t i = 0; i < original.levels.size(); ++i) {
    EXPECT_EQ(parsed->levels[i].level, original.levels[i].level);
    EXPECT_EQ(parsed->levels[i].candidates, original.levels[i].candidates);
    EXPECT_EQ(parsed->levels[i].valid, original.levels[i].valid);
    EXPECT_EQ(parsed->levels[i].pruned, original.levels[i].pruned);
    EXPECT_EQ(parsed->levels[i].seconds, original.levels[i].seconds);
  }

  EXPECT_EQ(parsed->outcome.termination, original.outcome.termination);
  EXPECT_EQ(parsed->outcome.partial, original.outcome.partial);
  EXPECT_EQ(parsed->outcome.degradation_steps,
            original.outcome.degradation_steps);
  EXPECT_EQ(parsed->outcome.sigma_raised_to, original.outcome.sigma_raised_to);
  EXPECT_EQ(parsed->outcome.candidates_capped,
            original.outcome.candidates_capped);
  EXPECT_EQ(parsed->outcome.stopped_at_level,
            original.outcome.stopped_at_level);
  EXPECT_EQ(parsed->outcome.resumed_from_checkpoint,
            original.outcome.resumed_from_checkpoint);
  EXPECT_EQ(parsed->outcome.peak_memory_bytes,
            original.outcome.peak_memory_bytes);

  // The visible deliverable: the client re-renders the identical report.
  EXPECT_EQ(core::FormatResult(*parsed, parsed_names),
            core::FormatResult(original, names));
}

TEST(ServeProtocolTest, ParseResultRejectsMissingSections) {
  for (const char* json :
       {"{\"min_support\":1,\"average_error\":0,\"total_seconds\":0,"
        "\"total_evaluated\":0,\"levels\":[],\"outcome\":{"
        "\"termination\":\"completed\"}}",  // missing top_k
        "{\"min_support\":1,\"average_error\":0,\"total_seconds\":0,"
        "\"total_evaluated\":0,\"top_k\":[],\"levels\":[]}",  // no outcome
        "[1,2]"}) {
    auto value = obs::ParseJson(json);
    ASSERT_TRUE(value.ok()) << json;
    auto parsed = ParseResultJson(value.value(), nullptr);
    EXPECT_FALSE(parsed.ok()) << json;
  }
}

TEST(ServeProtocolTest, ResultJsonOfARealRunIsStrictJson) {
  Rng rng(5);
  data::IntMatrix x0(300, 3);
  std::vector<double> errors(300);
  for (int64_t i = 0; i < 300; ++i) {
    for (int j = 0; j < 3; ++j) {
      x0.At(i, j) = static_cast<int32_t>(rng.NextUint64(3)) + 1;
    }
    errors[i] = rng.NextBool(0.3) ? 1.0 : 0.0;
  }
  core::SliceLineConfig config;
  config.k = 3;
  config.min_support = 10;
  auto result = core::RunSliceLine(x0, errors, config);
  ASSERT_TRUE(result.ok());

  std::ostringstream os;
  obs::JsonWriter writer(os);
  WriteResultJson(&writer, *result, {"alpha", "beta", "gamma"});
  EXPECT_EQ(obs::ValidateStrictJson(os.str()), "") << os.str();
  auto value = obs::ParseJson(os.str());
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  auto parsed = ParseResultJson(value.value(), nullptr);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->min_support, 10);
  EXPECT_EQ(parsed->top_k.size(), result->top_k.size());
  EXPECT_EQ(parsed->levels.size(), result->levels.size());
}

TEST(ServeProtocolTest, ResultJsonEscapesFeatureNames) {
  core::SliceLineResult result;
  core::Slice slice;
  slice.predicates = {{0, 1}};
  slice.stats = {1.0, 1.0, 1.0, 10};
  result.top_k.push_back(slice);
  const std::vector<std::string> names = {"weird\"name\\with\nbreak"};

  std::ostringstream os;
  obs::JsonWriter writer(os);
  WriteResultJson(&writer, result, names);
  EXPECT_NE(os.str().find("weird\\\"name\\\\with\\nbreak"), std::string::npos)
      << os.str();
  auto value = obs::ParseJson(os.str());
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  std::vector<std::string> parsed_names;
  ASSERT_TRUE(ParseResultJson(value.value(), &parsed_names).ok());
  EXPECT_EQ(parsed_names, names);
}

}  // namespace
}  // namespace sliceline::serve
