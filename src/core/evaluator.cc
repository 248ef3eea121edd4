#include "core/evaluator.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "linalg/kernels_simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sliceline::core {

void SliceSet::Add(const int64_t* begin, const int64_t* end) {
  SLICELINE_DCHECK(std::is_sorted(begin, end));
  columns_.insert(columns_.end(), begin, end);
  offsets_.push_back(static_cast<int64_t>(columns_.size()));
}

void SliceSet::Reserve(int64_t slices, int64_t total_columns) {
  offsets_.reserve(offsets_.size() + slices);
  columns_.reserve(columns_.size() + total_columns);
}

SliceEvaluator::SliceEvaluator(const data::IntMatrix& x0,
                               const data::FeatureOffsets& offsets,
                               const std::vector<double>& errors)
    : x0_(&x0), offsets_(&offsets), errors_(&errors),
      packed_bitmaps_(x0.rows(), offsets.total) {
  const int64_t n = x0.rows();
  const int64_t m = x0.cols();
  const int64_t l = offsets.total;
  SLICELINE_CHECK_EQ(static_cast<int64_t>(errors.size()), n);
  SLICELINE_CHECK_LT(n, std::numeric_limits<int32_t>::max());
  for (double e : errors) {
    SLICELINE_CHECK_GE(e, 0.0);
    total_error_ += e;
  }

  // Build the CSC inverted index and the level-1 statistics in two passes.
  basic_sizes_.assign(static_cast<size_t>(l), 0);
  basic_error_sums_.assign(static_cast<size_t>(l), 0.0);
  basic_max_errors_.assign(static_cast<size_t>(l), 0.0);
  col_ptr_.assign(static_cast<size_t>(l) + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    const int32_t* row = x0.row(i);
    const double e = errors[i];
    for (int64_t j = 0; j < m; ++j) {
      SLICELINE_CHECK(row[j] >= 1 && row[j] <= offsets.fdom[j])
          << "X0 code out of domain at (" << i << "," << j << ")";
      const int64_t c = offsets.fb[j] + row[j] - 1;
      ++basic_sizes_[c];
      basic_error_sums_[c] += e;
      if (e > basic_max_errors_[c]) basic_max_errors_[c] = e;
      ++col_ptr_[c + 1];
    }
  }
  for (int64_t c = 0; c < l; ++c) col_ptr_[c + 1] += col_ptr_[c];
  rows_.resize(static_cast<size_t>(n * m));
  std::vector<int64_t> cursor(col_ptr_.begin(), col_ptr_.end() - 1);
  for (int64_t i = 0; i < n; ++i) {
    const int32_t* row = x0.row(i);
    for (int64_t j = 0; j < m; ++j) {
      const int64_t c = offsets_->fb[j] + row[j] - 1;
      rows_[cursor[c]++] = static_cast<int32_t>(i);
    }
  }
}

void SliceEvaluator::EvaluateOne(const int64_t* cols, int64_t len,
                                 double* size, double* error_sum,
                                 double* max_error) const {
  SLICELINE_DCHECK(len >= 1);
  // Drive the scan from the rarest predicate's inverted list and verify the
  // remaining predicates with O(1) probes into X0.
  int64_t best = 0;
  for (int64_t k = 1; k < len; ++k) {
    if (col_ptr_[cols[k] + 1] - col_ptr_[cols[k]] <
        col_ptr_[cols[best] + 1] - col_ptr_[cols[best]]) {
      best = k;
    }
  }
  struct Predicate {
    int feature;
    int32_t code;
  };
  // Small inline buffer for the common shallow-lattice case.
  Predicate inline_preds[16];
  std::vector<Predicate> heap_preds;
  Predicate* preds = inline_preds;
  if (len - 1 > 16) {
    heap_preds.resize(static_cast<size_t>(len - 1));
    preds = heap_preds.data();
  }
  int64_t num_preds = 0;
  for (int64_t k = 0; k < len; ++k) {
    if (k == best) continue;
    const int f = offsets_->FeatureOfColumn(cols[k]);
    preds[num_preds++] = {f, offsets_->CodeOfColumn(cols[k])};
  }
  double ss = 0.0;
  double se = 0.0;
  double sm = 0.0;
  const int64_t drive = cols[best];
  for (int64_t p = col_ptr_[drive]; p < col_ptr_[drive + 1]; ++p) {
    const int32_t r = rows_[p];
    bool match = true;
    for (int64_t k = 0; k < num_preds; ++k) {
      if (x0_->At(r, preds[k].feature) != preds[k].code) {
        match = false;
        break;
      }
    }
    if (match) {
      const double e = (*errors_)[r];
      ss += 1.0;
      se += e;
      if (e > sm) sm = e;
    }
  }
  *size = ss;
  *error_sum = se;
  *max_error = sm;
}

namespace {

/// Poll stride for governance checks inside slice loops: frequent enough to
/// stop within one batch, rare enough to stay off the profile.
constexpr size_t kGovernanceStride = 64;

/// Number of fixed row ranges the scan-block strategy splits X0 into.
constexpr int64_t kScanRowRanges = 64;

}  // namespace

void SliceEvaluator::EvaluateIndex(const SliceSet& set, bool parallel,
                                   const RunContext* ctx,
                                   EvalResult* out) const {
  const int64_t count = set.size();
  auto body = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (ctx != nullptr && (i - begin) % kGovernanceStride == 0 &&
          ctx->ShouldStop()) {
        return;
      }
      EvaluateOne(set.Columns(i), set.Length(i), &out->sizes[i],
                  &out->error_sums[i], &out->max_errors[i]);
    }
  };
  if (parallel) {
    GlobalThreadPool().ParallelForRange(static_cast<size_t>(count), ctx, body);
  } else {
    body(0, static_cast<size_t>(count));
  }
}

void SliceEvaluator::EvaluateScanBlock(const SliceSet& set, int block_size,
                                       bool parallel, const RunContext* ctx,
                                       EvalResult* out) const {
  const int64_t count = set.size();
  const int64_t n = x0_->rows();
  const int64_t m = x0_->cols();
  const int b = std::max(1, block_size);
  // Fixed row ranges of ceil(n / kScanRowRanges) rows; see the waves below.
  const int64_t range_rows =
      std::max<int64_t>(1, (n + kScanRowRanges - 1) / kScanRowRanges);
  const size_t num_ranges =
      static_cast<size_t>((n + range_rows - 1) / range_rows);

  for (int64_t block_begin = 0; block_begin < count; block_begin += b) {
    if (ctx != nullptr && ctx->ShouldStop()) return;
    const int64_t block_end = std::min<int64_t>(block_begin + b, count);
    const int64_t bs = block_end - block_begin;
    // Column -> slices-in-block adjacency, plus required match counts.
    // (This mirrors the paper's X * S_b^T product: each row contributes one
    // count per matching predicate; a row is in slice s iff count == L_s.)
    std::vector<std::vector<int32_t>> col_slices(
        static_cast<size_t>(offsets_->total));
    std::vector<int32_t> lengths(static_cast<size_t>(bs));
    for (int64_t s = block_begin; s < block_end; ++s) {
      lengths[s - block_begin] = static_cast<int32_t>(set.Length(s));
      for (int64_t k = 0; k < set.Length(s); ++k) {
        col_slices[set.Columns(s)[k]].push_back(
            static_cast<int32_t>(s - block_begin));
      }
    }

    struct Partial {
      std::vector<double> ss, se, sm;
    };
    auto scan = [&](int64_t row_begin, int64_t row_end, Partial* acc) {
      std::vector<int32_t> counts(static_cast<size_t>(bs), 0);
      std::vector<int32_t> touched;
      touched.reserve(static_cast<size_t>(bs));
      for (int64_t i = row_begin; i < row_end; ++i) {
        // Row-strided governance poll; a stop mid-scan leaves this block's
        // partial sums incomplete, which is fine -- the caller discards the
        // whole EvalResult on a governance status.
        if (ctx != nullptr &&
            (i - row_begin) % (kGovernanceStride * 64) == 0 &&
            ctx->ShouldStop()) {
          return;
        }
        const int32_t* row = x0_->row(i);
        touched.clear();
        for (int64_t j = 0; j < m; ++j) {
          const int64_t c = offsets_->fb[j] + row[j] - 1;
          for (int32_t s : col_slices[c]) {
            if (counts[s]++ == 0) touched.push_back(s);
          }
        }
        const double e = (*errors_)[i];
        for (int32_t s : touched) {
          if (counts[s] == lengths[s]) {
            acc->ss[s] += 1.0;
            acc->se[s] += e;
            if (e > acc->sm[s]) acc->sm[s] = e;
          }
          counts[s] = 0;
        }
      }
    };

    // Adds one range's sums into `out` and clears them for the next wave.
    auto fold = [&](Partial* acc) {
      for (int64_t s = 0; s < bs; ++s) {
        const int64_t i = block_begin + s;
        out->sizes[i] += acc->ss[s];
        out->error_sums[i] += acc->se[s];
        out->max_errors[i] = std::max(out->max_errors[i], acc->sm[s]);
        acc->ss[s] = acc->se[s] = acc->sm[s] = 0.0;
      }
    };

    // Rows are swept in waves of up to one fixed row range per worker, and
    // each wave is folded into `out` in ascending range order. The range
    // bounds depend on n alone, so the add sequence -- and with it every
    // rounding -- is the same for any pool size, parallel or serial.
    const size_t workers =
        parallel ? std::min(GlobalThreadPool().num_threads(), num_ranges) : 1;
    std::vector<Partial> partials(workers);
    for (Partial& acc : partials) {
      acc.ss.assign(static_cast<size_t>(bs), 0.0);
      acc.se.assign(static_cast<size_t>(bs), 0.0);
      acc.sm.assign(static_cast<size_t>(bs), 0.0);
    }
    for (size_t first = 0; first < num_ranges; first += partials.size()) {
      if (ctx != nullptr && ctx->ShouldStop()) return;
      const size_t len = std::min(partials.size(), num_ranges - first);
      auto scan_ranges = [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) {
          const int64_t row_begin =
              static_cast<int64_t>(first + r) * range_rows;
          scan(row_begin, std::min(row_begin + range_rows, n), &partials[r]);
        }
      };
      if (len > 1) {
        if (!GlobalThreadPool().ParallelForRange(len, ctx, scan_ranges)) {
          return;
        }
      } else {
        scan_ranges(0, len);
      }
      for (size_t r = 0; r < len; ++r) fold(&partials[r]);
    }
  }
}

void SliceEvaluator::EvaluateBitset(const SliceSet& set, bool parallel,
                                    const RunContext* ctx,
                                    EvalResult* out) const {
  // Resolve the ISA dispatch once on the coordinating thread; every worker
  // uses the same kernel table, so a concurrent ForceIsa cannot split one
  // evaluation across ISA levels.
  const linalg::SimdKernels& kernels = linalg::ActiveKernels();

  // Serial pre-pass: pack bitmaps for every distinct column that is not
  // cached yet (lazy, so ultra-wide one-hot spaces only pay for the columns
  // candidate slices actually touch). Each column packs its CSC inverted
  // list exactly once per dataset lifetime.
  {
    std::lock_guard<std::mutex> lock(bitmap_mutex_);
    for (int64_t s = 0; s < set.size(); ++s) {
      for (int64_t k = 0; k < set.Length(s); ++k) {
        const int64_t c = set.Columns(s)[k];
        if (!packed_bitmaps_.Has(c)) {
          packed_bitmaps_.Build(c, rows_.data() + col_ptr_[c],
                                col_ptr_[c + 1] - col_ptr_[c]);
        }
      }
    }
  }

  const int64_t words = packed_bitmaps_.words();
  const double* errors = errors_->data();
  auto body = [&](size_t begin, size_t end) {
    // Gather each candidate's column bitmap pointers into one arena, then
    // hand contiguous chunks to the cache-blocked SIMD loop. Chunks double
    // as the strided governance poll boundary.
    int64_t range_columns = 0;
    for (size_t s = begin; s < end; ++s) range_columns += set.Length(s);
    std::vector<const uint64_t*> arena;
    arena.reserve(static_cast<size_t>(range_columns));
    std::vector<size_t> arena_offsets(end - begin);
    for (size_t s = begin; s < end; ++s) {
      arena_offsets[s - begin] = arena.size();
      for (int64_t k = 0; k < set.Length(s); ++k) {
        arena.push_back(packed_bitmaps_.Get(set.Columns(s)[k]));
      }
    }
    std::vector<linalg::CandidateColumns> candidates(end - begin);
    for (size_t s = begin; s < end; ++s) {
      candidates[s - begin] = {arena.data() + arena_offsets[s - begin],
                               static_cast<int32_t>(set.Length(s))};
    }
    for (size_t chunk = begin; chunk < end; chunk += kGovernanceStride) {
      if (ctx != nullptr && ctx->ShouldStop()) return;
      const size_t chunk_end = std::min(end, chunk + kGovernanceStride);
      linalg::EvaluateCandidatesBlocked(
          kernels, candidates.data() + (chunk - begin),
          static_cast<int64_t>(chunk_end - chunk), words, errors,
          out->sizes.data() + chunk, out->error_sums.data() + chunk,
          out->max_errors.data() + chunk);
    }
  };
  if (parallel) {
    GlobalThreadPool().ParallelForRange(static_cast<size_t>(set.size()), ctx,
                                        body);
  } else {
    body(0, static_cast<size_t>(set.size()));
  }
}

StatusOr<EvalResult> SliceEvaluator::Evaluate(
    const SliceSet& set, const SliceLineConfig& config) const {
  const RunContext* ctx = config.run_context;
  EvalResult out;
  const size_t count = static_cast<size_t>(set.size());
  out.sizes.assign(count, 0.0);
  out.error_sums.assign(count, 0.0);
  out.max_errors.assign(count, 0.0);
  if (count == 0) return out;
  TRACE_SPAN("evaluator/evaluate", set.size());
  if (obs::MetricsEnabled()) {
    static const char* kStrategyCounters[] = {
        "evaluator/index/slices", "evaluator/scan_block/slices",
        "evaluator/bitset/slices"};
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
    registry->GetCounter("evaluator/slices_evaluated")->Add(set.size());
    registry
        ->GetCounter(
            kStrategyCounters[static_cast<int>(config.eval_strategy)])
        ->Add(set.size());
    if (config.eval_strategy == SliceLineConfig::EvalStrategy::kBitset) {
      // Which ISA level the packed kernels dispatched at, attributable in
      // registry snapshots and RunReport JSON.
      registry
          ->GetCounter(std::string("evaluator/simd_isa/") +
                       linalg::SelectedIsaName())
          ->Add(set.size());
    }
  }
  switch (config.eval_strategy) {
    case SliceLineConfig::EvalStrategy::kIndex:
      EvaluateIndex(set, config.parallel, ctx, &out);
      break;
    case SliceLineConfig::EvalStrategy::kScanBlock:
      EvaluateScanBlock(set, config.eval_block_size, config.parallel, ctx,
                        &out);
      break;
    case SliceLineConfig::EvalStrategy::kBitset:
      EvaluateBitset(set, config.parallel, ctx, &out);
      break;
  }
  // A stop observed mid-evaluation leaves `out` incomplete; report the
  // governance status so the engine discards it and packages best-so-far
  // results from fully evaluated levels only.
  if (ctx != nullptr && ctx->ShouldStop()) {
    return StopReasonToStatus(ctx->CheckStop());
  }
  return out;
}

}  // namespace sliceline::core
