// RunReport schema tests: the JSON document is strict (validated with the
// same ValidateStrictJson the shell tests use), carries every section, and
// mirrors the engine's own LevelStats exactly; the Prometheus exposition
// follows the text-format rules (TYPE lines, cumulative buckets, +Inf =
// count); file output round-trips through WriteRunReportJson.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sliceline.h"
#include "data/int_matrix.h"
#include "obs/json_parse.h"
#include "obs/json_validate.h"
#include "obs/metrics.h"
#include "obs/run_report.h"

namespace sliceline::obs {
namespace {

class RunReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = MetricsEnabled();
    SetMetricsEnabled(true);
    MetricsRegistry::Default()->ResetValues();
  }
  void TearDown() override {
    MetricsRegistry::Default()->ResetValues();
    SetMetricsEnabled(was_enabled_);
  }

  /// Planted dataset with a clear problem conjunction so the top-K is
  /// non-empty and multiple levels enumerate.
  static void MakePlanted(int64_t n, data::IntMatrix* x0,
                          std::vector<double>* errors) {
    Rng rng(41);
    *x0 = data::IntMatrix(n, 4);
    errors->resize(n);
    for (int64_t i = 0; i < n; ++i) {
      for (int j = 0; j < 4; ++j) {
        x0->At(i, j) = static_cast<int32_t>(rng.NextUint64(3)) + 1;
      }
      (*errors)[i] = rng.NextBool(0.05) ? 1.0 : 0.0;
      if (x0->At(i, 0) == 1 && x0->At(i, 1) == 2) (*errors)[i] = 1.0;
    }
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(RunReportTest, EmptyReportIsStrictJson) {
  RunReport report;
  std::ostringstream os;
  report.WriteJson(os, nullptr);
  EXPECT_EQ(ValidateStrictJson(os.str()), "") << os.str();
  EXPECT_NE(os.str().find("\"schema_version\":1"), std::string::npos);
}

TEST_F(RunReportTest, FullReportIsStrictJsonWithAllSections) {
  data::IntMatrix x0;
  std::vector<double> errors;
  MakePlanted(800, &x0, &errors);
  core::SliceLineConfig config;
  config.k = 3;
  auto result = core::RunSliceLine(x0, errors, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->top_k.empty());

  RunReport report;
  report.set_tool("run_report_test");
  report.set_engine("native");
  report.set_dataset("planted");
  report.SetConfig(config);
  report.SetResult(*result, {"f0", "f1", "f2", "f3"});
  report.AddNumericSection("extra", {{"a", 1.0}, {"b", 2.5}});
  report.AddNumericSection("extra", {{"c", -3.0}});  // merges into "extra"
  report.AddAnnotation("note", "value with \"quotes\" and \\ backslash");

  std::ostringstream os;
  report.WriteJson(os);
  const std::string json = os.str();
  EXPECT_EQ(ValidateStrictJson(json), "") << json;
  for (const char* key :
       {"\"schema_version\"", "\"tool\"", "\"engine\"", "\"dataset\"",
        "\"config\"", "\"totals\"", "\"levels\"", "\"top_k\"", "\"outcome\"",
        "\"sections\"", "\"annotations\"", "\"metrics\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"termination\":\"completed\""), std::string::npos);
  EXPECT_NE(json.find("\"extra\":{\"a\":1,\"b\":2.5,\"c\":-3}"),
            std::string::npos);
  // Registry snapshot made it in: the run above recorded per-level
  // counters through the native engine's instrumentation.
  EXPECT_NE(json.find("\"name\":\"native/level1/candidates\""),
            std::string::npos);
}

TEST_F(RunReportTest, PerLevelMetricsMatchLevelStatsExactly) {
  data::IntMatrix x0;
  std::vector<double> errors;
  MakePlanted(1000, &x0, &errors);
  core::SliceLineConfig config;
  config.k = 4;
  auto result = core::RunSliceLine(x0, errors, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->levels.empty());

  MetricsRegistry* registry = MetricsRegistry::Default();
  int64_t candidates_total = 0;
  for (const core::LevelStats& level : result->levels) {
    candidates_total += level.candidates;
    EXPECT_EQ(registry
                  ->GetCounter(LevelMetricName("native", level.level,
                                               "candidates"))
                  ->Value(),
              level.candidates)
        << "level " << level.level;
    EXPECT_EQ(
        registry->GetCounter(LevelMetricName("native", level.level, "valid"))
            ->Value(),
        level.valid)
        << "level " << level.level;
    EXPECT_EQ(
        registry->GetCounter(LevelMetricName("native", level.level, "pruned"))
            ->Value(),
        level.pruned)
        << "level " << level.level;
  }
  EXPECT_EQ(registry->GetCounter("native/candidates_total")->Value(),
            candidates_total);
  EXPECT_EQ(registry->GetCounter("native/levels_completed")->Value(),
            static_cast<int64_t>(result->levels.size()));
  EXPECT_EQ(registry->GetHistogram("native/level_seconds")->Count(),
            static_cast<int64_t>(result->levels.size()));
}

TEST_F(RunReportTest, PrometheusMetricNameSanitization) {
  EXPECT_EQ(PrometheusMetricName("native/level1/candidates"),
            "sliceline_native_level1_candidates");
  EXPECT_EQ(PrometheusMetricName("kernel/MatVec/seconds"),
            "sliceline_kernel_MatVec_seconds");
  EXPECT_EQ(PrometheusMetricName("a-b.c d"), "sliceline_a_b_c_d");
}

TEST_F(RunReportTest, PrometheusExpositionFormat) {
  MetricsRegistry registry;
  registry.GetCounter("native/level1/candidates")->Add(5);
  registry.GetGauge("dist/rounds")->Set(3.0);
  HistogramOptions options;
  options.base = 1.0;
  options.growth = 2.0;
  options.num_buckets = 2;  // bounds 1, 2 + overflow
  Histogram* histogram = registry.GetHistogram("timing", options);
  histogram->Observe(0.5);
  histogram->Observe(1.5);
  histogram->Observe(10.0);

  std::ostringstream os;
  RunReport::WritePrometheus(os, &registry);
  const std::string text = os.str();

  EXPECT_NE(
      text.find("# TYPE sliceline_dist_rounds gauge\nsliceline_dist_rounds 3"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE sliceline_native_level1_candidates counter\n"
                      "sliceline_native_level1_candidates 5"),
            std::string::npos)
      << text;
  // Histogram buckets are cumulative and +Inf equals the total count.
  EXPECT_NE(text.find("# TYPE sliceline_timing histogram"),
            std::string::npos);
  EXPECT_NE(text.find("sliceline_timing_bucket{le=\"1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sliceline_timing_bucket{le=\"2\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sliceline_timing_bucket{le=\"+Inf\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sliceline_timing_count 3"), std::string::npos);
  EXPECT_NE(text.find("sliceline_timing_sum 12"), std::string::npos) << text;

  // Every non-comment line is "name[{labels}] value" with a sane name.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      ASSERT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    EXPECT_EQ(name.rfind("sliceline_", 0), 0u) << line;
    for (char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << "bad character '" << c << "' in " << line;
    }
  }
}

TEST_F(RunReportTest, WriteRunReportJsonToFile) {
  RunReport report;
  report.set_tool("run_report_test");
  const std::string path = ::testing::TempDir() + "run_report_test.json";
  ASSERT_TRUE(WriteRunReportJson(report, path, nullptr).ok());
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(ValidateStrictJson(buffer.str()), "");

  // Unopenable path surfaces as a Status, not a crash.
  EXPECT_FALSE(
      WriteRunReportJson(report, "/nonexistent-dir/report.json", nullptr)
          .ok());
}

TEST_F(RunReportTest, ValidatorRejectsMalformedDocuments) {
  // The validator the schema checks rely on actually rejects breakage.
  EXPECT_NE(ValidateStrictJson(""), "");
  EXPECT_NE(ValidateStrictJson("{\"a\":1,}"), "");
  EXPECT_NE(ValidateStrictJson("{\"a\":01}"), "");
  EXPECT_NE(ValidateStrictJson("{\"a\":1} trailing"), "");
  EXPECT_NE(ValidateStrictJson("{\"a\":NaN}"), "");
  EXPECT_EQ(ValidateStrictJson(" {\"a\":[1,2.5,-3e2,null,true]} \n"), "");
}

TEST_F(RunReportTest, ValidatorAndParserAcceptTheSameDocuments) {
  // Duplicate keys and unpaired UTF-16 surrogates are not strict JSON; the
  // validator and the parser must agree on every one of them.
  for (const char* text : {"{\"a\":1,\"a\":2}", "\"\\uD800\"", "\"\\uDC00x\"",
                           "\"\\uD800A\""}) {
    EXPECT_NE(ValidateStrictJson(text), "") << text;
    EXPECT_FALSE(ParseJson(text).ok()) << text;
  }
  // A paired surrogate is fine for both.
  EXPECT_EQ(ValidateStrictJson("\"\\uD83D\\uDE00\""), "");
  EXPECT_TRUE(ParseJson("\"\\uD83D\\uDE00\"").ok());
}

}  // namespace
}  // namespace sliceline::obs
