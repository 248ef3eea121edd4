#include "core/slice_analysis.h"

#include "common/logging.h"

namespace sliceline::core {

double SliceJaccard(const Slice& a, const Slice& b,
                    const data::IntMatrix& x0) {
  int64_t in_a = 0;
  int64_t in_b = 0;
  int64_t in_both = 0;
  for (int64_t i = 0; i < x0.rows(); ++i) {
    const bool ma = a.Matches(x0, i);
    const bool mb = b.Matches(x0, i);
    in_a += ma;
    in_b += mb;
    in_both += ma && mb;
  }
  const int64_t in_union = in_a + in_b - in_both;
  return in_union == 0 ? 0.0
                       : static_cast<double>(in_both) /
                             static_cast<double>(in_union);
}

SliceAnalysis AnalyzeSlices(const std::vector<Slice>& slices,
                            const data::IntMatrix& x0,
                            const std::vector<double>& errors) {
  SLICELINE_CHECK_EQ(static_cast<int64_t>(errors.size()), x0.rows());
  SliceAnalysis analysis;
  const size_t k = slices.size();
  if (k == 0) return analysis;

  // One pass over rows computing membership per slice.
  std::vector<std::vector<uint8_t>> member(
      k, std::vector<uint8_t>(static_cast<size_t>(x0.rows()), 0));
  double total_error = 0.0;
  double covered_error = 0.0;
  analysis.error_shares.assign(k, 0.0);
  for (int64_t i = 0; i < x0.rows(); ++i) {
    total_error += errors[i];
    bool any = false;
    for (size_t s = 0; s < k; ++s) {
      if (slices[s].Matches(x0, i)) {
        member[s][i] = 1;
        analysis.error_shares[s] += errors[i];
        any = true;
      }
    }
    if (any) {
      ++analysis.covered_rows;
      covered_error += errors[i];
    }
  }
  if (total_error > 0.0) {
    analysis.covered_error_share = covered_error / total_error;
    for (double& share : analysis.error_shares) share /= total_error;
  }

  // Pairwise Jaccard from the membership bitmaps.
  analysis.pairwise_jaccard.reserve(k * (k - 1) / 2);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = a + 1; b < k; ++b) {
      int64_t inter = 0;
      int64_t uni = 0;
      for (int64_t i = 0; i < x0.rows(); ++i) {
        const bool ma = member[a][i] != 0;
        const bool mb = member[b][i] != 0;
        inter += ma && mb;
        uni += ma || mb;
      }
      analysis.pairwise_jaccard.push_back(
          uni == 0 ? 0.0
                   : static_cast<double>(inter) / static_cast<double>(uni));
    }
  }
  return analysis;
}

}  // namespace sliceline::core
