// Devirtualized, select-then-reduce exact row scans. A RangeScan compiles
// one query's predicate once; its ForEachMatch template then tests rows of
// any layout — the columnar base Table or a row-major delta chunk span —
// without a per-row virtual call when the predicate is axis-aligned, and
// hands each block's matches to the caller as a selection vector, so the
// reduction (AggregateAccumulator::AddSelected) touches only matching rows
// and takes no per-row branch. Other predicate families keep their
// virtual Matches behind the same template, so every exact scan on the
// serving path is one loop shape.
//
// Matches are always selected in row order 0..n-1, and the compiled test
// accepts exactly the rows Matches accepts, so a scan feeds an accumulator
// the same values in the same order as a per-row Matches loop would.
#ifndef NEUROSKETCH_QUERY_RANGE_SCAN_H_
#define NEUROSKETCH_QUERY_RANGE_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <vector>

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

  /// \brief Tests rows 0..n-1 of `rows` in blocks of kBlockRows and, for
  /// every block with at least one match, calls `fn(idx, m)`: idx[0..m)
  /// are the matching row indices (absolute, 0..n-1) in ascending order.
  /// The selection is written without branches (`idx[m] = i; m += hit;`),
  /// so the scan cost does not depend on how predictable the predicate
  /// is.
  template <typename Rows, typename Fn>
  void ForEachMatch(const Rows& rows, size_t n, Fn&& fn) const {
    // Left uninitialized: clearing 9 KiB per call would cost more than a
    // short delta span's scan. fn reads only idx[0..m), and keep[0..len)
    // is filled before it is read.
    size_t idx[kBlockRows];
    if (!compiled_) {
      std::vector<double> scratch(rows.dim);
      for (size_t base = 0; base < n; base += kBlockRows) {
        const size_t end = base + std::min(kBlockRows, n - base);
        size_t m = 0;
        for (size_t i = base; i < end; ++i) {
          idx[m] = i;
          m += pred_->Matches(*q_, rows.Row(i, scratch.data()), dim_);
        }
        if (m > 0) fn(static_cast<const size_t*>(idx), m);
      }
      return;
    }
    const size_t k = bounds_.size();
    bool keep[kBlockRows];
    for (size_t base = 0; base < n; base += kBlockRows) {
      const size_t len = std::min(kBlockRows, n - base);
      size_t m = 0;
      if (k == 0) {  // no active attribute: every row matches
        for (size_t i = 0; i < len; ++i) idx[i] = base + i;
        m = len;
      } else {
        // Every bound but the last narrows a keep mask one column at a
        // time; the last is tested in the pass that writes the selection.
        if (k > 1) std::fill_n(keep, len, true);
        for (size_t j = 0; j + 1 < k; ++j) {
          const auto col = rows.Column(bounds_[j].col);
          const double lo = bounds_[j].lo, hi = bounds_[j].hi;
          for (size_t i = 0; i < len; ++i) {
            const double v = col(base + i);
            keep[i] = keep[i] & !(v < lo) & !(v >= hi);
          }
        }
        const auto col = rows.Column(bounds_[k - 1].col);
        const double lo = bounds_[k - 1].lo, hi = bounds_[k - 1].hi;
        if (k == 1) {
          for (size_t i = 0; i < len; ++i) {
            const double v = col(base + i);
            idx[m] = base + i;
            m += !(v < lo) & !(v >= hi);
          }
        } else {
          for (size_t i = 0; i < len; ++i) {
            const double v = col(base + i);
            idx[m] = base + i;
            m += keep[i] & !(v < lo) & !(v >= hi);
          }
        }
      }
      if (m > 0) fn(static_cast<const size_t*>(idx), m);
    }
  }

 private:
  const PredicateFunction* pred_;
  const QueryInstance* q_;
  size_t dim_;
  bool compiled_ = false;
  std::vector<AxisBound> bounds_;
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_RANGE_SCAN_H_
