#include "core/slice_analysis.h"

#include <gtest/gtest.h>

namespace sliceline::core {
namespace {

data::IntMatrix SmallX0() {
  // Two binary features over 8 rows.
  data::IntMatrix x0(8, 2);
  const int32_t rows[8][2] = {{1, 1}, {1, 1}, {1, 2}, {1, 2},
                              {2, 1}, {2, 1}, {2, 2}, {2, 2}};
  for (int i = 0; i < 8; ++i) {
    x0.At(i, 0) = rows[i][0];
    x0.At(i, 1) = rows[i][1];
  }
  return x0;
}

Slice MakeSlice(std::vector<std::pair<int, int32_t>> preds, double score) {
  Slice s;
  s.predicates = std::move(preds);
  s.stats.score = score;
  return s;
}

TEST(SliceJaccardTest, DisjointAndNested) {
  data::IntMatrix x0 = SmallX0();
  const Slice f0_1 = MakeSlice({{0, 1}}, 1);  // rows 0-3
  const Slice f0_2 = MakeSlice({{0, 2}}, 1);  // rows 4-7
  const Slice both = MakeSlice({{0, 1}, {1, 1}}, 1);  // rows 0-1
  EXPECT_DOUBLE_EQ(SliceJaccard(f0_1, f0_2, x0), 0.0);
  EXPECT_DOUBLE_EQ(SliceJaccard(f0_1, f0_1, x0), 1.0);
  EXPECT_DOUBLE_EQ(SliceJaccard(f0_1, both, x0), 0.5);  // 2 / 4
}

TEST(SliceJaccardTest, Overlapping) {
  data::IntMatrix x0 = SmallX0();
  const Slice f0_1 = MakeSlice({{0, 1}}, 1);  // rows 0-3
  const Slice f1_1 = MakeSlice({{1, 1}}, 1);  // rows 0,1,4,5
  // Intersection rows {0,1}; union {0,1,2,3,4,5}.
  EXPECT_DOUBLE_EQ(SliceJaccard(f0_1, f1_1, x0), 2.0 / 6.0);
}

TEST(AnalyzeSlicesTest, CoverageAndErrorShares) {
  data::IntMatrix x0 = SmallX0();
  std::vector<double> errors = {1, 1, 0, 0, 1, 1, 0, 0};  // total 4
  std::vector<Slice> slices = {
      MakeSlice({{0, 1}}, 1),  // rows 0-3, error 2
      MakeSlice({{1, 1}}, 1),  // rows 0,1,4,5, error 4
  };
  SliceAnalysis analysis = AnalyzeSlices(slices, x0, errors);
  EXPECT_EQ(analysis.covered_rows, 6);  // union rows 0-5
  EXPECT_DOUBLE_EQ(analysis.covered_error_share, 1.0);  // all error covered
  ASSERT_EQ(analysis.error_shares.size(), 2u);
  EXPECT_DOUBLE_EQ(analysis.error_shares[0], 0.5);
  EXPECT_DOUBLE_EQ(analysis.error_shares[1], 1.0);
  ASSERT_EQ(analysis.pairwise_jaccard.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.pairwise_jaccard[0], 2.0 / 6.0);
}

TEST(AnalyzeSlicesTest, EmptyInput) {
  data::IntMatrix x0 = SmallX0();
  std::vector<double> errors(8, 0.5);
  SliceAnalysis analysis = AnalyzeSlices({}, x0, errors);
  EXPECT_EQ(analysis.covered_rows, 0);
  EXPECT_TRUE(analysis.pairwise_jaccard.empty());
}

}  // namespace
}  // namespace sliceline::core
