#ifndef SLICELINE_CORE_SLICE_ANALYSIS_H_
#define SLICELINE_CORE_SLICE_ANALYSIS_H_

#include <vector>

#include "core/slice.h"
#include "data/int_matrix.h"

namespace sliceline::core {

/// Post-hoc analysis of a slice-finding result against the dataset it was
/// computed on: overlap structure (slice finding intentionally allows
/// overlapping slices), combined coverage, and per-slice error shares.
struct SliceAnalysis {
  /// Jaccard similarity of row sets for every slice pair (row-major
  /// upper-triangular packing, entry (i, j > i) at index i*K - i*(i+1)/2 +
  /// (j - i - 1)).
  std::vector<double> pairwise_jaccard;
  /// Number of rows covered by at least one slice.
  int64_t covered_rows = 0;
  /// Fraction of the total dataset error inside the union of all slices.
  double covered_error_share = 0.0;
  /// Per-slice fraction of the total dataset error.
  std::vector<double> error_shares;
};

/// Computes overlap/coverage statistics for `slices` over (x0, errors).
SliceAnalysis AnalyzeSlices(const std::vector<Slice>& slices,
                            const data::IntMatrix& x0,
                            const std::vector<double>& errors);

/// Jaccard similarity of two slices' matching-row sets.
double SliceJaccard(const Slice& a, const Slice& b,
                    const data::IntMatrix& x0);

}  // namespace sliceline::core

#endif  // SLICELINE_CORE_SLICE_ANALYSIS_H_
