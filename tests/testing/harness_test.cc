// Tests of the differential-testing harness itself: the generator's case
// shapes, replay round-tripping, shrinker convergence, and — the harness's
// own acceptance test — that a deliberately injected engine bug is caught
// and shrunk within a bounded number of cases.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/checks.h"
#include "testing/fuzz_harness.h"
#include "testing/random_dataset.h"
#include "testing/replay.h"
#include "testing/shrink.h"

namespace sliceline::testing {
namespace {

TEST(RandomDatasetGeneratorTest, CasesAreWellFormedAcrossProfiles) {
  RandomDatasetGenerator generator(5);
  for (int profile = 0; profile < RandomDatasetGenerator::num_profiles();
       ++profile) {
    FuzzCase c = generator.NextWithProfile(profile);
    EXPECT_GT(c.x0.rows(), 0) << c.profile;
    EXPECT_GT(c.x0.cols(), 0) << c.profile;
    EXPECT_EQ(static_cast<int64_t>(c.errors.size()), c.x0.rows())
        << c.profile;
    EXPECT_GE(c.config.k, 1) << c.profile;
    EXPECT_GT(c.config.alpha, 0.0) << c.profile;
    EXPECT_LE(c.config.alpha, 1.0) << c.profile;
    for (int64_t i = 0; i < c.x0.rows(); ++i) {
      EXPECT_GE(c.errors[i], 0.0) << c.profile;
      for (int64_t j = 0; j < c.x0.cols(); ++j) {
        EXPECT_GE(c.x0.At(i, j), 1) << c.profile;
      }
    }
  }
}

TEST(RandomDatasetGeneratorTest, SeedReproducesCase) {
  RandomDatasetGenerator a(77);
  FuzzCase c1 = a.NextWithProfile(0);
  FuzzCase c2 = RegenerateCase(c1.seed, 0, RandomDatasetOptions{});
  ASSERT_EQ(c1.x0.rows(), c2.x0.rows());
  ASSERT_EQ(c1.x0.cols(), c2.x0.cols());
  EXPECT_EQ(c1.errors, c2.errors);
  for (int64_t i = 0; i < c1.x0.rows(); ++i) {
    for (int64_t j = 0; j < c1.x0.cols(); ++j) {
      EXPECT_EQ(c1.x0.At(i, j), c2.x0.At(i, j));
    }
  }
}

TEST(ReplayTest, JsonRoundTripIsBitExact) {
  RandomDatasetGenerator generator(9);
  ReplayRecord record;
  record.check = "oracle";
  record.failure = "scores diverge \"quoted\"\nline2";
  record.case_index = 42;
  record.fuzz_case = generator.Next();
  // Make the doubles awkward on purpose.
  record.fuzz_case.errors[0] = 0.1 + 0.2;
  record.fuzz_case.config.alpha = 1.0 / 3.0;

  auto parsed = ReplayFromJson(ReplayToJson(record));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->check, record.check);
  EXPECT_EQ(parsed->failure, record.failure);
  EXPECT_EQ(parsed->case_index, record.case_index);
  EXPECT_EQ(parsed->fuzz_case.seed, record.fuzz_case.seed);
  EXPECT_EQ(parsed->fuzz_case.profile, record.fuzz_case.profile);
  EXPECT_EQ(parsed->fuzz_case.errors, record.fuzz_case.errors);
  EXPECT_EQ(parsed->fuzz_case.config.alpha, record.fuzz_case.config.alpha);
  EXPECT_EQ(parsed->fuzz_case.config.k, record.fuzz_case.config.k);
  ASSERT_EQ(parsed->fuzz_case.x0.rows(), record.fuzz_case.x0.rows());
  ASSERT_EQ(parsed->fuzz_case.x0.cols(), record.fuzz_case.x0.cols());
  for (int64_t i = 0; i < record.fuzz_case.x0.rows(); ++i) {
    for (int64_t j = 0; j < record.fuzz_case.x0.cols(); ++j) {
      EXPECT_EQ(parsed->fuzz_case.x0.At(i, j), record.fuzz_case.x0.At(i, j));
    }
  }
}

TEST(ReplayTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ReplayFromJson("").ok());
  EXPECT_FALSE(ReplayFromJson("{").ok());
  EXPECT_FALSE(ReplayFromJson("{\"bogus_key\": 1}").ok());
  // Inconsistent shape: x0 length must be rows * cols.
  RandomDatasetGenerator generator(3);
  ReplayRecord record;
  record.check = "oracle";
  record.fuzz_case = generator.Next();
  std::string json = ReplayToJson(record);
  const auto pos = json.find("\"rows\":");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 8, "\"rows\": 9");
  EXPECT_FALSE(ReplayFromJson(json).ok());

  // Out-of-range or non-integral numbers are rejected, never cast.
  const std::string valid = ReplayToJson(record);
  ASSERT_TRUE(ReplayFromJson(valid).ok());
  // Replaces the value of `key` (an array's leading elements) up to the
  // next character in `stop`.
  auto splice = [](std::string text, const std::string& key,
                   const std::string& value, const char* stop = ",}") {
    const size_t at = text.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    const size_t from = text.find_first_not_of(" [", at + key.size() + 3);
    return text.replace(from, text.find_first_of(stop, from) - from, value);
  };
  EXPECT_FALSE(
      ReplayFromJson(splice(valid, "seed", "\"99999999999999999999999\""))
          .ok());
  EXPECT_FALSE(ReplayFromJson(splice(valid, "x0", "1e300", ",]")).ok());
  EXPECT_FALSE(ReplayFromJson(splice(valid, "x0", "3e9", ",]")).ok());
  EXPECT_FALSE(ReplayFromJson(splice(valid, "rows", "-1")).ok());
  // rows * cols = 2^64 wraps to 0 in int64; a kernel record (errors unused)
  // with an empty x0 would then pass the length check.
  std::string huge = splice(valid, "check", "\"kernel\"");
  huge = splice(huge, "rows", "4294967296");
  huge = splice(huge, "cols", "4294967296");
  huge = splice(huge, "x0", "", "]");
  huge = splice(huge, "errors", "", "]");
  EXPECT_FALSE(ReplayFromJson(huge).ok());
}

TEST(ReplayTest, FileRoundTrip) {
  RandomDatasetGenerator generator(21);
  ReplayRecord record;
  record.check = "metamorphic";
  record.fuzz_case = generator.Next();
  const std::string path = ::testing::TempDir() + "/replay_roundtrip.json";
  ASSERT_TRUE(WriteReplayFile(path, record).ok());
  auto read = ReadReplayFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->check, "metamorphic");
  EXPECT_EQ(read->fuzz_case.errors, record.fuzz_case.errors);
  EXPECT_FALSE(ReadReplayFile(::testing::TempDir() + "/missing.json").ok());
}

TEST(ShrinkTest, ConvergesToMinimalRows) {
  // Synthetic defect: any dataset containing a row whose first feature is
  // the marker code 3 "fails". The shrinker should strip everything else.
  RandomDatasetGenerator generator(31);
  FuzzCase c = generator.Next();
  c.x0 = data::IntMatrix(64, 2, 1);
  c.errors.assign(64, 0.5);
  c.x0.At(17, 0) = 3;
  auto check = [](const FuzzCase& candidate) -> std::string {
    for (int64_t i = 0; i < candidate.x0.rows(); ++i) {
      if (candidate.x0.cols() >= 1 && candidate.x0.At(i, 0) == 3) {
        return "marker row present";
      }
    }
    return "";
  };
  ASSERT_NE(check(c), "");
  ShrinkResult shrunk = Shrink(c, "marker row present", check);
  EXPECT_NE(shrunk.failure, "");
  EXPECT_GT(shrunk.steps, 0);
  EXPECT_LE(shrunk.fuzz_case.x0.rows(), 2);
  EXPECT_NE(check(shrunk.fuzz_case), "");
}

TEST(ShrinkTest, PassingCheckMeansNoReduction) {
  RandomDatasetGenerator generator(33);
  FuzzCase c = generator.Next();
  ShrinkResult shrunk =
      Shrink(c, "stale failure", [](const FuzzCase&) { return std::string(); });
  // Nothing reproduces, so the original case is returned untouched.
  EXPECT_EQ(shrunk.steps, 0);
  EXPECT_EQ(shrunk.fuzz_case.x0.rows(), c.x0.rows());
}

TEST(FuzzHarnessTest, SmallBatchOfEveryCheckIsGreen) {
  for (const char* check : kCheckNames) {
    FuzzOptions options;
    options.seed = 101;
    options.cases = check == std::string("determinism") ? 4 : 12;
    options.checks = {check};
    options.replay_dir = "";  // no artifacts from a passing run
    options.kernel_rounds = 1;
    options.determinism_stride = 2;
    FuzzReport report = RunFuzz(options);
    EXPECT_TRUE(report.ok()) << check << ": "
                             << (report.failures.empty()
                                     ? ""
                                     : report.failures[0].failure);
    EXPECT_GT(report.checks_run, 0) << check;
  }
}

TEST(FuzzHarnessTest, InjectedScoringBugIsCaughtAndShrunk) {
  FuzzOptions options;
  options.seed = 7;
  options.cases = 200;
  options.checks = {"oracle"};
  options.inject = InjectedBug::kScoring;
  options.replay_dir = ::testing::TempDir();
  FuzzReport report = RunFuzz(options);
  ASSERT_FALSE(report.ok()) << "injected scoring bug escaped 200 cases";
  const FuzzFailure& failure = report.failures[0];
  EXPECT_LT(failure.case_index, 200u);
  EXPECT_NE(failure.failure, "");
  // The shrunk reproduction is no larger than the generator's output and a
  // replay file exists that still reproduces under the same injection.
  ASSERT_FALSE(failure.replay_path.empty());
  auto record = ReadReplayFile(failure.replay_path);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_NE(RunReplay(*record, InjectedBug::kScoring), "");
  // Without the injection the very same case passes: the harness flagged
  // the bug, not a broken case.
  EXPECT_EQ(RunReplay(*record, InjectedBug::kNone), "");
}

TEST(FuzzHarnessTest, InjectedKernelBugIsCaught) {
  FuzzOptions options;
  options.seed = 7;
  options.cases = 50;
  options.checks = {"kernel"};
  options.inject = InjectedBug::kKernel;
  options.replay_dir = "";
  options.kernel_rounds = 1;
  FuzzReport report = RunFuzz(options);
  ASSERT_FALSE(report.ok()) << "injected kernel bug escaped 50 cases";
  EXPECT_NE(report.failures[0].failure.find("ColSums"), std::string::npos)
      << report.failures[0].failure;
}

TEST(FuzzHarnessTest, CleanRunIsGreenAcrossSeeds) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    FuzzOptions options;
    options.seed = seed;
    options.cases = 16;
    options.replay_dir = "";
    options.kernel_rounds = 1;
    FuzzReport report = RunFuzz(options);
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": "
        << (report.failures.empty() ? "" : report.failures[0].failure);
    EXPECT_EQ(report.cases_run, 16);
  }
}

}  // namespace
}  // namespace sliceline::testing
