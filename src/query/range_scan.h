// Devirtualized exact row scans. A RangeScan compiles one query's
// predicate once; its Run template then tests rows of any layout — the
// columnar base Table or a row-major delta chunk span — without a
// per-row virtual call when the predicate is axis-aligned. Other
// predicate families keep their virtual Matches behind the same template,
// so every exact scan on the serving path is one loop shape.
//
// Row visit order is always 0..n-1, and the compiled test accepts exactly
// the rows Matches accepts, so a scan feeds an accumulator the same values
// in the same order as the per-row virtual loop it replaces.
#ifndef NEUROSKETCH_QUERY_RANGE_SCAN_H_
#define NEUROSKETCH_QUERY_RANGE_SCAN_H_

#include <cstddef>
#include <type_traits>
#include <vector>

#include "query/predicate.h"
#include "query/query.h"

namespace neurosketch {

/// \brief Column-major rows (Table storage): value (i, c) is cols[c][i].
struct ColumnRows {
  const double* const* cols;
  size_t dim;
  double At(size_t i, size_t c) const { return cols[c][i]; }
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
  double At(size_t i, size_t c) const { return base[i * dim + c]; }
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

  /// \brief Tests rows 0..n-1 of `rows` in order and calls `fn(i, hit)`
  /// for every row, matching or not. When `fn` returns bool, returning
  /// false stops the scan after that row.
  template <typename Rows, typename Fn>
  void Run(const Rows& rows, size_t n, Fn&& fn) const {
    if (compiled_) {
      const AxisBound* b = bounds_.data();
      const size_t k = bounds_.size();
      for (size_t i = 0; i < n; ++i) {
        bool hit = true;
        for (size_t j = 0; j < k; ++j) {
          const double v = rows.At(i, b[j].col);
          hit &= !(v < b[j].lo) & !(v >= b[j].hi);
        }
        if (!Continue(fn, i, hit)) return;
      }
      return;
    }
    std::vector<double> scratch(rows.dim);
    for (size_t i = 0; i < n; ++i) {
      const bool hit = pred_->Matches(*q_, rows.Row(i, scratch.data()), dim_);
      if (!Continue(fn, i, hit)) return;
    }
  }

 private:
  template <typename Fn>
  static bool Continue(Fn& fn, size_t i, bool hit) {
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, size_t, bool>>) {
      fn(i, hit);
      return true;
    } else {
      return fn(i, hit);
    }
  }

  const PredicateFunction* pred_;
  const QueryInstance* q_;
  size_t dim_;
  bool compiled_ = false;
  std::vector<AxisBound> bounds_;
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_RANGE_SCAN_H_
