#include "query/aggregate.h"

#include <cmath>
#include <limits>

#include "util/stats.h"

namespace neurosketch {

AggregateAccumulator::AggregateAccumulator(Aggregate agg) : agg_(agg) {}

double AggregateAccumulator::Finalize() const {
  switch (agg_) {
    case Aggregate::kCount:
      return static_cast<double>(count_);
    case Aggregate::kSum:
      return sum_;
    case Aggregate::kAvg:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return mean_;
    case Aggregate::kStd:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return std::sqrt(m2_ / static_cast<double>(count_));
    case Aggregate::kMedian:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return stats::Median(buffer_);
    case Aggregate::kMin:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return min_;
    case Aggregate::kMax:
      if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
      return max_;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double AggregateAccumulator::Evaluate(Aggregate agg,
                                      const std::vector<double>& values) {
  AggregateAccumulator acc(agg);
  for (double v : values) acc.Add(v);
  return acc.Finalize();
}

}  // namespace neurosketch
