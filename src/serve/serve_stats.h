// Serve-side metrics: the aggregate counters (throughput, fallback rate,
// batch shape), per-pipeline-stage latency breakdowns, and per-store
// accounting a serving deployment exports. Counters are relaxed atomics
// updated on the dispatch path; ServeEngine::Snapshot() materializes a
// consistent-enough view without stalling serving (see the contract on
// ServeStats).
#ifndef NEUROSKETCH_SERVE_SERVE_STATS_H_
#define NEUROSKETCH_SERVE_SERVE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace neurosketch {
namespace serve {

/// \brief Log-bucketed latency histogram (4 buckets/octave over
/// [1us, ~16.7s], lock-free Add, interpolated percentiles good to the
/// sub-bucket range — see metrics::LogHistogram for the error bound).
using LatencyHistogram = metrics::LogHistogram;

/// \brief Interpolated percentiles of one latency histogram.
struct LatencyBreakdown {
  uint64_t count = 0;
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0, p999_us = 0.0;

  static LatencyBreakdown From(const LatencyHistogram& h) {
    LatencyBreakdown b;
    b.count = h.TotalCount();
    b.p50_us = h.PercentileUs(50);
    b.p95_us = h.PercentileUs(95);
    b.p99_us = h.PercentileUs(99);
    b.p999_us = h.PercentileUs(99.9);
    return b;
  }
};

/// \brief Per-(dataset, query function) serving view: where the traffic
/// went and what its tail looks like, so hot/cold store skew is visible.
struct StoreStatsSnapshot {
  std::string store;             ///< "dataset/agg(col N)" display key
  uint64_t queries = 0;          ///< answers delivered for this key
  uint64_t sketch_answers = 0;
  uint64_t f32_sketch_answers = 0;
  uint64_t fallback_answers = 0;
  uint64_t failed_answers = 0;
  /// Streaming composition counters: sketch answers adjusted with an
  /// exact correction over unfolded delta rows (decomposable aggregates)
  /// vs answers recomputed exactly over base+delta because the aggregate
  /// does not decompose (AVG/STD/MEDIAN with matching unfolded rows —
  /// these also count under fallback_answers).
  uint64_t delta_corrected_answers = 0;
  uint64_t delta_exact_answers = 0;
  bool demoted = false;          ///< error budget tripped
  double fallback_rate = 0.0;    ///< fallback_answers / queries
  LatencyBreakdown latency;      ///< submit->answer for this key only
};

/// \brief Per-dispatcher-shard serving view: each (dataset, query
/// function) key is pinned to exactly one shard, so shard rows expose
/// load imbalance (a hot shard) independently of store skew (a hot
/// store). Counters follow the same relaxed scrape contract as the rest
/// of ServeStats.
struct ShardStatsSnapshot {
  size_t shard = 0;              ///< shard index, 0-based
  uint64_t queries = 0;          ///< answers delivered by this shard
  uint64_t sketch_answers = 0;
  uint64_t fallback_answers = 0;
  uint64_t failed_answers = 0;
  uint64_t batches = 0;          ///< micro-batches this shard dispatched
  uint64_t budget_trips = 0;     ///< demotions decided on this shard
  /// Submissions that found this shard's ring full and had to wait for
  /// backpressure (counted per Submit/SubmitMany call, not per query).
  uint64_t backpressure_waits = 0;
  size_t resident_keys = 0;      ///< store keys routed to this shard
  double mean_batch_size = 0.0;
  LatencyBreakdown latency;      ///< submit->answer for this shard only
};

/// \brief Point-in-time view of a ServeEngine's counters.
///
/// Consistency contract (the one place it is documented): every field is
/// read with a relaxed atomic load while dispatchers keep serving, so a
/// snapshot is at most ~one in-flight micro-batch stale and cross-field
/// invariants (queries == sketch + fallback + failed, per-store sums ==
/// engine totals, histogram count == queries) may be off by the requests
/// fulfilled mid-snapshot. Quiesce clients first when exact equalities
/// are required. ResetStats() zeroes counters, histograms, per-store
/// state and the elapsed clock as one operation under the engine lock;
/// answers in flight during the reset may still land afterwards and
/// count toward the new window.
struct ServeStats {
  uint64_t queries = 0;          ///< answers delivered
  uint64_t sketch_answers = 0;   ///< answered by a sketch forward pass
  /// Subset of sketch_answers served by a sketch whose active tier was
  /// f32 at answer time.
  uint64_t f32_sketch_answers = 0;
  uint64_t fallback_answers = 0; ///< answered by the exact engine
  uint64_t failed_answers = 0;   ///< NaN with no fallback available
  /// Sketch answers composed with an exact correction over unfolded
  /// delta rows (COUNT/SUM/MIN/MAX — the answer stayed on the sketch
  /// path and still counts under sketch_answers).
  uint64_t delta_corrected_answers = 0;
  /// Answers recomputed exactly over base + delta because the aggregate
  /// does not decompose (AVG/STD/MEDIAN with matching unfolded delta
  /// rows); a subset of fallback_answers.
  uint64_t delta_exact_answers = 0;
  uint64_t batches = 0;          ///< micro-batches dispatched
  uint64_t budget_trips = 0;     ///< stores demoted by the error budget
  double elapsed_seconds = 0.0;  ///< since engine start (or last reset)
  double qps = 0.0;              ///< queries / elapsed_seconds
  double mean_batch_size = 0.0;
  double fallback_rate = 0.0;    ///< fallback_answers / queries
  /// Submit->answer percentiles (p999 carries the same sub-bucket
  /// interpolation error bound as the rest).
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0, p999_us = 0.0;

  /// True when the engine was tracing pipeline stages (ServeOptions::
  /// stage_tracing); the stage breakdowns below are all-zero otherwise.
  bool stage_tracing = false;
  /// Per-stage latency split of the serve pipeline. queue.count counts
  /// requests (each waits individually); the other three count
  /// micro-batches (the stage is shared by the whole batch).
  LatencyBreakdown stage_queue;      ///< enqueue -> picked into a batch
  LatencyBreakdown stage_assembly;   ///< batch collection -> inference
  /// Inference start -> first answer's delivery clock read: the forward
  /// pass (or exact batch) plus the NaN scan and error-budget accounting.
  LatencyBreakdown stage_inference;
  /// First -> last answer's delivery clock read (0 for batches of one).
  /// Boundaries reuse the clock reads fulfillment already pays, so stage
  /// tracing adds only one extra clock read to the critical path.
  LatencyBreakdown stage_fulfill;

  /// One entry per (dataset, query function) key that has served
  /// traffic, sorted by display key.
  std::vector<StoreStatsSnapshot> per_store;

  /// One entry per dispatcher shard, indexed 0..num_shards-1. The
  /// engine-wide counters above are the sums of these rows (up to the
  /// usual in-flight staleness).
  size_t num_shards = 0;
  std::vector<ShardStatsSnapshot> per_shard;
};

}  // namespace serve
}  // namespace neurosketch

#endif  // NEUROSKETCH_SERVE_SERVE_STATS_H_
