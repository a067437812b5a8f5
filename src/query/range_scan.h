// Devirtualized, select-then-reduce exact row scans. A RangeScan compiles
// one query's predicate once; its Select template then tests a block of
// rows of any layout — the columnar base Table or a row-major delta chunk
// span — without a per-row virtual call when the predicate is
// axis-aligned, and writes the block's matches as a selection vector, so
// the reduction (AggregateAccumulator::AddSelected) touches only matching
// rows and takes no per-row branch. Other predicate families keep their
// virtual Matches behind the same template, so every exact scan on the
// serving path is one loop shape. ReduceMatches is the batch form: many
// queries select per block, and their reductions advance in lockstep.
//
// Matches are always selected in row order, and the compiled test accepts
// exactly the rows Matches accepts, so a scan feeds an accumulator the
// same values in the same order as a per-row Matches loop would.
#ifndef NEUROSKETCH_QUERY_RANGE_SCAN_H_
#define NEUROSKETCH_QUERY_RANGE_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "query/aggregate.h"
#include "query/predicate.h"
#include "query/query.h"

namespace neurosketch {

/// \brief Column-major rows (Table storage): value (i, c) is cols[c][i].
struct ColumnRows {
  const double* const* cols;
  size_t dim;
  /// Column c as a callable from row index to value, with its base
  /// pointer hoisted out of the row loop.
  auto Column(size_t c) const {
    return [p = cols[c]](size_t i) { return p[i]; };
  }
  /// Materializes row i into `scratch` (dim doubles) for a virtual Matches.
  const double* Row(size_t i, double* scratch) const {
    for (size_t c = 0; c < dim; ++c) scratch[c] = cols[c][i];
    return scratch;
  }
#if defined(__SSE2__)
  /// Values (i, c) and (i + 1, c), low lane first.
  __m128d Pair(size_t c, size_t i) const { return _mm_loadu_pd(cols[c] + i); }
#endif
};

/// \brief Row-major rows (a delta chunk span): row i starts at
/// base + i * dim.
struct RowMajorRows {
  const double* base;
  size_t dim;
  auto Column(size_t c) const {
    return [p = base + c, d = dim](size_t i) { return p[i * d]; };
  }
  const double* Row(size_t i, double* scratch) const {
    (void)scratch;
    return base + i * dim;
  }
#if defined(__SSE2__)
  __m128d Pair(size_t c, size_t i) const {
    const double* p = base + i * dim + c;
    return _mm_loadh_pd(_mm_load_sd(p), p + dim);
  }
#endif
};

/// \brief One query's predicate, compiled once for any number of scans.
/// Holds references to the predicate and the query: both must outlive it.
class RangeScan {
 public:
  RangeScan(const PredicateFunction& pred, const QueryInstance& q,
            size_t data_dim)
      : pred_(&pred), q_(&q), dim_(data_dim) {
    if (dynamic_cast<const AxisRangePredicate*>(&pred) != nullptr) {
      compiled_ = true;
      AxisRangePredicate::CompileBounds(q, data_dim, &bounds_);
    }
  }

  /// \brief True when rows are tested against bounds() rather than the
  /// predicate's virtual Matches.
  bool compiled() const { return compiled_; }
  const std::vector<AxisBound>& bounds() const { return bounds_; }

  /// \brief Rows tested per selection block: the delta chunk size, so a
  /// block's selection vector stays on the stack and in L1.
  static constexpr size_t kBlockRows = 1024;

  /// \brief Writes the indices of the rows in [begin, end) that match
  /// into idx[0..m) in ascending order and returns m. The block may hold
  /// at most kBlockRows rows, and `idx` must have room for all of them.
  ///
  /// Where SSE2 is available, compiled bounds test 64 rows at a time:
  /// each bound yields a 64-bit match word from
  /// `_mm_cmpnlt_pd(v, lo) & _mm_cmpnge_pd(v, hi)` over value pairs (one
  /// load from a column, two from row-major rows), the words are ANDed
  /// across bounds and their set bits expanded into idx. Those
  /// unordered-true compares are exactly the scalar
  /// `!(v < lo) & !(v >= hi)`, NaN included. The rest (a tail of fewer
  /// than 64 rows, other platforms) writes the selection without branches
  /// (`idx[m] = i; m += hit;`).
  template <typename Rows>
  size_t Select(const Rows& rows, size_t begin, size_t end,
                size_t* idx) const {
    size_t m = 0;
    if (!compiled_) {
      std::vector<double> scratch(rows.dim);
      for (size_t i = begin; i < end; ++i) {
        idx[m] = i;
        m += pred_->Matches(*q_, rows.Row(i, scratch.data()), dim_);
      }
      return m;
    }
    const size_t k = bounds_.size();
    if (k == 0) {  // no active attribute: every row matches
      for (size_t i = begin; i < end; ++i) idx[m++] = i;
      return m;
    }
#if defined(__SSE2__)
    for (; begin + 64 <= end; begin += 64) {
      uint64_t word = MatchWord(rows, bounds_[0], begin);
      for (size_t j = 1; j < k && word != 0; ++j) {
        word &= MatchWord(rows, bounds_[j], begin);
      }
      for (; word != 0; word &= word - 1) {
        idx[m++] = begin + static_cast<size_t>(__builtin_ctzll(word));
      }
    }
#endif
    const size_t len = end - begin;
    // Every bound but the last narrows a keep mask one column at a time;
    // the last is tested in the pass that writes the selection. keep is
    // left uninitialized: keep[0..len) is filled before it is read.
    bool keep[kBlockRows];
    if (k > 1) std::fill_n(keep, len, true);
    for (size_t j = 0; j + 1 < k; ++j) {
      const auto col = rows.Column(bounds_[j].col);
      const double lo = bounds_[j].lo, hi = bounds_[j].hi;
      for (size_t i = 0; i < len; ++i) {
        const double v = col(begin + i);
        keep[i] = keep[i] & !(v < lo) & !(v >= hi);
      }
    }
    const auto col = rows.Column(bounds_[k - 1].col);
    const double lo = bounds_[k - 1].lo, hi = bounds_[k - 1].hi;
    if (k == 1) {
      for (size_t i = 0; i < len; ++i) {
        const double v = col(begin + i);
        idx[m] = begin + i;
        m += !(v < lo) & !(v >= hi);
      }
    } else {
      for (size_t i = 0; i < len; ++i) {
        const double v = col(begin + i);
        idx[m] = begin + i;
        m += keep[i] & !(v < lo) & !(v >= hi);
      }
    }
    return m;
  }

 private:
#if defined(__SSE2__)
  /// Bit r of the result is set iff value (i + r, b.col) lies in
  /// [b.lo, b.hi) by the scalar rule, for r in 0..63.
  template <typename Rows>
  static uint64_t MatchWord(const Rows& rows, const AxisBound& b, size_t i) {
    const __m128d lo = _mm_set1_pd(b.lo), hi = _mm_set1_pd(b.hi);
    uint64_t word = 0;
    for (unsigned r = 0; r < 64; r += 4) {
      const __m128d v0 = rows.Pair(b.col, i + r);
      const __m128d v1 = rows.Pair(b.col, i + r + 2);
      const __m128d in0 =
          _mm_and_pd(_mm_cmpnlt_pd(v0, lo), _mm_cmpnge_pd(v0, hi));
      const __m128d in1 =
          _mm_and_pd(_mm_cmpnlt_pd(v1, lo), _mm_cmpnge_pd(v1, hi));
      // The low halves of the four 64-bit lane masks, one sign bit each.
      const __m128 in = _mm_shuffle_ps(_mm_castpd_ps(in0), _mm_castpd_ps(in1),
                                       _MM_SHUFFLE(2, 0, 2, 0));
      word |= static_cast<uint64_t>(_mm_movemask_ps(in)) << r;
    }
    return word;
  }
#endif

  const PredicateFunction* pred_;
  const QueryInstance* q_;
  size_t dim_;
  bool compiled_ = false;
  std::vector<AxisBound> bounds_;
};

/// \brief Batch-major select-then-reduce: for every q in [0, n), feeds
/// accs[q] the measure of each row in [start[q], num_rows) of `rows` that
/// scans[q] matches, in row order (start == nullptr: every row starts at
/// 0). Queries go in groups of AggregateAccumulator::kLockstepLanes; each
/// group walks the rows in blocks of RangeScan::kBlockRows, selects every
/// query's matches for a block into a per-thread buffer, then reduces them
/// with AddSelectedLockstep. Each accumulator receives the same values in
/// the same order, through the same operations, as a per-query
/// Select feeding AddSelected.
template <typename Rows>
void ReduceMatches(const Rows& rows, size_t num_rows, const RangeScan* scans,
                   const size_t* start, size_t n, size_t measure_col,
                   AggregateAccumulator* accs) {
  constexpr size_t kLanes = AggregateAccumulator::kLockstepLanes;
  constexpr size_t kBlock = RangeScan::kBlockRows;
  thread_local std::vector<size_t> buffer(kLanes * kBlock);
  const auto measure = rows.Column(measure_col);
  const size_t* sel[kLanes];
  size_t m[kLanes];
  for (size_t g = 0; g < n; g += kLanes) {
    const size_t lanes = std::min(kLanes, n - g);
    size_t first = num_rows;
    for (size_t j = 0; j < lanes; ++j) {
      first = std::min(first, start != nullptr ? start[g + j] : 0);
    }
    for (size_t b = first - first % kBlock; b < num_rows; b += kBlock) {
      const size_t end = std::min(b + kBlock, num_rows);
      for (size_t j = 0; j < lanes; ++j) {
        const size_t lo =
            start != nullptr ? std::max(b, start[g + j]) : b;
        size_t* idx = buffer.data() + j * kBlock;
        sel[j] = idx;
        m[j] = lo < end ? scans[g + j].Select(rows, lo, end, idx) : 0;
      }
      AggregateAccumulator::AddSelectedLockstep(accs + g, sel, m, lanes,
                                                measure);
    }
  }
}

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_RANGE_SCAN_H_
