// Aggregate accumulators. Streaming where possible (COUNT/SUM/AVG/STD/
// MIN/MAX); MEDIAN buffers matched values. AVG and STD use Welford's
// method.
#ifndef NEUROSKETCH_QUERY_AGGREGATE_H_
#define NEUROSKETCH_QUERY_AGGREGATE_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
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

  /// \brief Lanes one lockstep pass advances together.
  static constexpr size_t kLockstepLanes = 16;

  /// \brief For every q in [0, n), adds `get(idx[q][0..m[q]))` to accs[q],
  /// exactly as `accs[q].AddSelected(idx[q], m[q], get)` would. Every
  /// accumulator must hold the same aggregate. AVG and STD advance up to
  /// kLockstepLanes Welford chains in lockstep, one update per chain per
  /// round, so the latency of one chain's divisions overlaps the others';
  /// each chain still sees its own values in order through the same
  /// operations. Other aggregates reduce one accumulator at a time.
  template <typename Get>
  static void AddSelectedLockstep(AggregateAccumulator* accs,
                                  const size_t* const* idx, const size_t* m,
                                  size_t n, Get&& get);

  double Finalize() const;
  size_t count() const { return count_; }

  /// \brief One-shot evaluation over a value vector.
  static double Evaluate(Aggregate agg, const std::vector<double>& values);

 private:
  /// Advances W Welford chains together through rounds [k0, k1): in
  /// round k, chain j adds get(sel[j][k]). n[j] is chain j's count as a
  /// double; adding 1.0 is exact below 2^53, so it equals the
  /// static_cast<double>(count) a size_t counter would divide by. Each
  /// chain's state is a local indexed by a constant, so it stays in a
  /// register: a chain kept in memory would add a store-to-load delay to
  /// every link.
  template <bool kStd, typename Get, size_t... J>
  static void WelfordRounds(std::index_sequence<J...>,
                            const size_t* const* sel, size_t k0, size_t k1,
                            double* n, double* mean, double* m2,
                            const Get& get);

  /// WelfordRounds for any chain count 1..kLockstepLanes (`w`).
  template <bool kStd, typename Get, size_t... W>
  static void WelfordRoundsOfWidth(std::index_sequence<W...>, size_t w,
                                   const size_t* const* sel, size_t k0,
                                   size_t k1, double* n, double* mean,
                                   double* m2, const Get& get);

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
      double n = static_cast<double>(count_);
      if (agg_ == Aggregate::kStd) {
        WelfordRounds<true>(std::index_sequence<0>{}, &idx, 0, m, &n, &mean_,
                            &m2_, get);
      } else {
        WelfordRounds<false>(std::index_sequence<0>{}, &idx, 0, m, &n,
                             &mean_, &m2_, get);
      }
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

template <bool kStd, typename Get, size_t... J>
void AggregateAccumulator::WelfordRounds(std::index_sequence<J...>,
                                         const size_t* const* sel, size_t k0,
                                         size_t k1, double* n, double* mean,
                                         double* m2, const Get& get) {
  double cnt[] = {n[J]...}, mu[] = {mean[J]...}, sq[] = {m2[J]...};
  auto step = [&](size_t j, double v) {
    cnt[j] += 1.0;
    const double delta = v - mu[j];
    mu[j] += delta / cnt[j];
    if (kStd) sq[j] += delta * (v - mu[j]);
  };
  for (size_t k = k0; k < k1; ++k) (step(J, get(sel[J][k])), ...);
  ((n[J] = cnt[J], mean[J] = mu[J], m2[J] = sq[J]), ...);
}

template <bool kStd, typename Get, size_t... W>
void AggregateAccumulator::WelfordRoundsOfWidth(
    std::index_sequence<W...>, size_t w, const size_t* const* sel, size_t k0,
    size_t k1, double* n, double* mean, double* m2, const Get& get) {
  using Rounds = void (*)(const size_t* const*, size_t, size_t, double*,
                          double*, double*, const Get&);
  static constexpr Rounds kByWidth[] = {
      [](const size_t* const* s, size_t a, size_t b, double* c, double* mu,
         double* sq, const Get& g) {
        WelfordRounds<kStd>(std::make_index_sequence<W + 1>{}, s, a, b, c, mu,
                            sq, g);
      }...};
  kByWidth[w - 1](sel, k0, k1, n, mean, m2, get);
}

template <typename Get>
void AggregateAccumulator::AddSelectedLockstep(AggregateAccumulator* accs,
                                               const size_t* const* idx,
                                               const size_t* m, size_t n,
                                               Get&& get) {
  if (n == 0) return;
  const Aggregate agg = accs[0].agg_;
  if (agg != Aggregate::kAvg && agg != Aggregate::kStd) {
    for (size_t q = 0; q < n; ++q) accs[q].AddSelected(idx[q], m[q], get);
    return;
  }
  const bool std_dev = agg == Aggregate::kStd;
  constexpr auto kWidths = std::make_index_sequence<kLockstepLanes>{};
  for (size_t g = 0; g < n; g += kLockstepLanes) {
    // Lanes sorted by selection length, longest first, so the lanes still
    // advancing at round k are always a prefix.
    AggregateAccumulator* acc[kLockstepLanes];
    const size_t* sel[kLockstepLanes];
    size_t len[kLockstepLanes];
    double cnt[kLockstepLanes], mean[kLockstepLanes], m2[kLockstepLanes];
    size_t lanes = 0;
    for (size_t q = g; q < n && q < g + kLockstepLanes; ++q) {
      if (m[q] == 0) continue;
      size_t j = lanes++;
      for (; j > 0 && len[j - 1] < m[q]; --j) {
        acc[j] = acc[j - 1];
        sel[j] = sel[j - 1];
        len[j] = len[j - 1];
      }
      acc[j] = &accs[q];
      sel[j] = idx[q];
      len[j] = m[q];
    }
    for (size_t j = 0; j < lanes; ++j) {
      cnt[j] = static_cast<double>(acc[j]->count_);
      mean[j] = acc[j]->mean_;
      m2[j] = acc[j]->m2_;
    }
    // Rounds [k, len[live - 1]) advance the `live` longest lanes.
    for (size_t k = 0, live = lanes; live > 0; --live) {
      if (len[live - 1] == k) continue;
      if (std_dev) {
        WelfordRoundsOfWidth<true, std::decay_t<Get>>(
            kWidths, live, sel, k, len[live - 1], cnt, mean, m2, get);
      } else {
        WelfordRoundsOfWidth<false, std::decay_t<Get>>(
            kWidths, live, sel, k, len[live - 1], cnt, mean, m2, get);
      }
      k = len[live - 1];
    }
    for (size_t j = 0; j < lanes; ++j) {
      acc[j]->mean_ = mean[j];
      acc[j]->m2_ = m2[j];
      acc[j]->count_ += len[j];
    }
  }
}

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_AGGREGATE_H_
