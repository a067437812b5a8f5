// Aggregate accumulators. Streaming where possible (COUNT/SUM/AVG/STD/
// MIN/MAX); MEDIAN buffers matched values. AVG and STD use Welford's
// method.
#ifndef NEUROSKETCH_QUERY_AGGREGATE_H_
#define NEUROSKETCH_QUERY_AGGREGATE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "query/query.h"

namespace neurosketch {

/// \brief Accumulates measure values for one query and finalizes the
/// aggregate. COUNT/SUM of zero rows is 0; AVG/STD/MEDIAN/MIN/MAX of zero
/// rows is NaN (the query answer is undefined; workload generators resample
/// such queries).
///
/// Each aggregate updates only the state its Finalize reads (plus the
/// shared count), with one definition per aggregate: Add is AddSelected
/// over a single value.
class AggregateAccumulator {
 public:
  explicit AggregateAccumulator(Aggregate agg);

  void Add(double measure_value) {
    const size_t zero = 0;
    AddSelected(&zero, 1, [measure_value](size_t) { return measure_value; });
  }

  /// \brief Adds the values `get(idx[0]), ..., get(idx[m - 1])` in that
  /// order, exactly as m calls of Add would, with one dispatch on the
  /// aggregate for the whole selection.
  template <typename Get>
  void AddSelected(const size_t* idx, size_t m, Get&& get);

  double Finalize() const;
  size_t count() const { return count_; }

  /// \brief One-shot evaluation over a value vector.
  static double Evaluate(Aggregate agg, const std::vector<double>& values);

 private:
  Aggregate agg_;
  size_t count_ = 0;
  double sum_ = 0.0;              // SUM
  double mean_ = 0.0, m2_ = 0.0;  // Welford state: AVG (mean), STD (both)
  double min_ = 0.0, max_ = 0.0;  // MIN, MAX
  std::vector<double> buffer_;    // MEDIAN
};

template <typename Get>
void AggregateAccumulator::AddSelected(const size_t* idx, size_t m,
                                       Get&& get) {
  if (m == 0) return;
  // Fields are copied into locals for the loops: the compiler cannot
  // prove a store to a member does not alias the rows `get` reads, and
  // would otherwise pin every update to memory.
  switch (agg_) {
    case Aggregate::kCount:
      break;
    case Aggregate::kSum: {
      double sum = sum_;
      for (size_t k = 0; k < m; ++k) sum += get(idx[k]);
      sum_ = sum;
      break;
    }
    case Aggregate::kAvg:
    case Aggregate::kStd: {
      // Welford: the mean update is the same for AVG and STD; only STD
      // reads m2.
      const bool std_dev = agg_ == Aggregate::kStd;
      double mean = mean_, m2 = m2_;
      size_t n = count_;
      for (size_t k = 0; k < m; ++k) {
        const double v = get(idx[k]);
        ++n;
        const double delta = v - mean;
        mean += delta / static_cast<double>(n);
        if (std_dev) m2 += delta * (v - mean);
      }
      mean_ = mean;
      m2_ = m2;
      break;
    }
    case Aggregate::kMin:
    case Aggregate::kMax: {
      // The first value ever added seeds both; later ones update with
      // std::min/std::max, so a NaN seed is sticky and a later NaN is
      // ignored.
      size_t k = 0;
      if (count_ == 0) min_ = max_ = get(idx[k++]);
      if (agg_ == Aggregate::kMin) {
        double lo = min_;
        for (; k < m; ++k) lo = std::min(lo, get(idx[k]));
        min_ = lo;
      } else {
        double hi = max_;
        for (; k < m; ++k) hi = std::max(hi, get(idx[k]));
        max_ = hi;
      }
      break;
    }
    case Aggregate::kMedian:
      for (size_t k = 0; k < m; ++k) buffer_.push_back(get(idx[k]));
      break;
  }
  count_ += m;
}

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_AGGREGATE_H_
