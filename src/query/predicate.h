// Predicate functions P_f(q, x) (paper Sec. 4.3): binary functions that
// decide whether data point x matches the range described by query
// instance q. NeuroSketch is generic over the predicate family; the
// baselines DBEst/DeepDB support only the axis-aligned family, which the
// evaluation (Table 2) exploits.
#ifndef NEUROSKETCH_QUERY_PREDICATE_H_
#define NEUROSKETCH_QUERY_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "query/query.h"

namespace neurosketch {

/// \brief Interface for P_f(q, x).
class PredicateFunction {
 public:
  virtual ~PredicateFunction() = default;

  /// \brief Length of the query-instance vector for a table with
  /// `data_dim` attributes.
  virtual size_t QueryDim(size_t data_dim) const = 0;

  /// \brief True iff the row matches the predicate. `row` has `data_dim`
  /// normalized attribute values.
  virtual bool Matches(const QueryInstance& q, const double* row,
                       size_t data_dim) const = 0;

  /// \brief Axis-aligned bounding box of the matching region, used by
  /// index-backed evaluators (TREE-AGG) to prune candidates before the
  /// exact Matches test. The default is the whole normalized domain.
  virtual void QueryBox(const QueryInstance& q, size_t data_dim,
                        std::vector<double>* lo,
                        std::vector<double>* hi) const;

  virtual std::string name() const = 0;
};

/// \brief One active attribute of a compiled axis-range query: a row
/// value v fails the bound iff `v < lo || v >= hi` (so a NaN value, or a
/// NaN bound, never fails it — exactly as AxisRangePredicate::Matches).
struct AxisBound {
  size_t col = 0;
  double lo = 0.0;
  double hi = 0.0;
};

/// \brief The canonical WHERE clause of Sec. 2:
/// c_i <= A_i < c_i + r_i for every attribute i.
/// q = (c_1..c_d, r_1..r_d); an inactive attribute has (c,r) = (0,1).
class AxisRangePredicate final : public PredicateFunction {
 public:
  size_t QueryDim(size_t data_dim) const override { return 2 * data_dim; }
  bool Matches(const QueryInstance& q, const double* row,
               size_t data_dim) const override;
  /// \brief Non-virtual form of Matches for scans: the active attributes
  /// of `q` as (column, c, c + r) bounds, in column order. Full-range
  /// (0, >= 1) attributes are dropped exactly as Matches skips them, and
  /// `hi` is the same double Matches computes per row, so a row matches
  /// iff it fails none of the bounds.
  static void CompileBounds(const QueryInstance& q, size_t data_dim,
                            std::vector<AxisBound>* out);
  void QueryBox(const QueryInstance& q, size_t data_dim,
                std::vector<double>* lo, std::vector<double>* hi) const override;
  std::string name() const override { return "axis_range"; }

  static std::shared_ptr<const AxisRangePredicate> Make() {
    return std::make_shared<const AxisRangePredicate>();
  }
};

/// \brief General rectangle (Table 2): q = (p_x, p_y, p'_x, p'_y, phi)
/// where p, p' are two non-adjacent vertices and phi is the angle the
/// rectangle makes with the x-axis. Applies to the first two attributes.
class RotatedRectPredicate : public PredicateFunction {
 public:
  size_t QueryDim(size_t data_dim) const override {
    (void)data_dim;
    return 5;
  }
  bool Matches(const QueryInstance& q, const double* row,
               size_t data_dim) const override;
  void QueryBox(const QueryInstance& q, size_t data_dim,
                std::vector<double>* lo, std::vector<double>* hi) const override;
  std::string name() const override { return "rotated_rect"; }

  static std::shared_ptr<const RotatedRectPredicate> Make() {
    return std::make_shared<const RotatedRectPredicate>();
  }
};

/// \brief Half-space above a line (Sec. 4.3 example):
/// matches when x[1] > x[0] * q[0] + q[1].
class HalfSpacePredicate : public PredicateFunction {
 public:
  size_t QueryDim(size_t data_dim) const override {
    (void)data_dim;
    return 2;
  }
  bool Matches(const QueryInstance& q, const double* row,
               size_t data_dim) const override;
  std::string name() const override { return "half_space"; }

  static std::shared_ptr<const HalfSpacePredicate> Make() {
    return std::make_shared<const HalfSpacePredicate>();
  }
};

/// \brief Circular range (Sec. 3.3.2): q = (c_1..c_d, radius), matches
/// points with ||x - c||_2 <= radius over the first `centers` attributes.
class CircularPredicate : public PredicateFunction {
 public:
  explicit CircularPredicate(size_t centers) : centers_(centers) {}
  size_t QueryDim(size_t data_dim) const override {
    (void)data_dim;
    return centers_ + 1;
  }
  bool Matches(const QueryInstance& q, const double* row,
               size_t data_dim) const override;
  void QueryBox(const QueryInstance& q, size_t data_dim,
                std::vector<double>* lo, std::vector<double>* hi) const override;
  std::string name() const override { return "circular"; }

  static std::shared_ptr<const CircularPredicate> Make(size_t centers) {
    return std::make_shared<const CircularPredicate>(centers);
  }

 private:
  size_t centers_;
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_PREDICATE_H_
