// Exact scan-based query engine. Provides ground truth f_D(q) for training
// set generation (paper Sec. 4.2: "a typical algorithm iterates over the
// points in the database ... checks whether it matches the RAQ predicate")
// and for the evaluation harness. Supports an optional parallel batch path
// mirroring the paper's "embarrassingly parallelizable across training
// queries" note.
#ifndef NEUROSKETCH_QUERY_ENGINE_H_
#define NEUROSKETCH_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/streaming_table.h"
#include "data/table.h"
#include "query/aggregate.h"
#include "query/predicate.h"
#include "query/query.h"
#include "query/range_scan.h"

namespace neurosketch {

/// \brief Exact evaluator over a (normalized) table.
///
/// Two modes share one interface:
/// - Static: constructed over a `const Table*` — the table is immutable
///   for the engine's lifetime (the training / evaluation case).
/// - Streaming: constructed over a `StreamingTable*` — the base table can
///   be swapped by compaction while the engine serves. Every call pins
///   ONE version for its whole duration (a batch never mixes versions),
///   and callers that must compose a base scan with a delta scan pin
///   explicitly via Pin() so the (table, fold watermark) pair is read
///   once. See data/streaming_table.h for the snapshot-before-pin
///   ordering rule.
class ExactEngine {
 public:
  /// \brief Static mode: the engine keeps a pointer; `table` must outlive
  /// it and stay immutable.
  explicit ExactEngine(const Table* table);

  /// \brief Streaming mode: answers run over the table's current pinned
  /// version; `streaming` must outlive the engine.
  explicit ExactEngine(const StreamingTable* streaming);

  /// \brief One consistent read of the base: the table to scan plus the
  /// delta fold watermark baked into it. In static mode `version` is null,
  /// `table` is the constructor table and `folded` is 0. In streaming mode
  /// `version` keeps the table alive across concurrent compaction swaps —
  /// hold the pin for the full unit of work.
  struct PinnedBase {
    std::shared_ptr<const StreamingTable::Version> version;
    const Table* table = nullptr;
    uint64_t folded = 0;
  };
  PinnedBase Pin() const;

  /// \brief Exact answer to one query. NaN for undefined answers
  /// (AVG-like aggregate over an empty range).
  double Answer(const QueryFunctionSpec& spec, const QueryInstance& q) const;

  /// \brief Feed every matching row's measure into `acc` without
  /// finalizing, in table row order. Answer(spec, q) is exactly
  /// `{ AggregateAccumulator a(spec.agg); Accumulate(spec, q, &a);
  /// a.Finalize(); }` — exposed so a caller can continue the same
  /// accumulation over rows the table does not hold (the streaming delta
  /// buffer): base-then-delta accumulation is bit-identical to a single
  /// scan of the appended table for every aggregate, including the
  /// order-dependent ones (Welford STD, MEDIAN's buffer).
  void Accumulate(const QueryFunctionSpec& spec, const QueryInstance& q,
                  AggregateAccumulator* acc) const;

  /// \brief Accumulate over an explicit table — the building block the
  /// streaming serve path uses with a pinned version, so one batch's base
  /// scans all read the same swap generation.
  static void AccumulateOver(const Table& table, const QueryFunctionSpec& spec,
                             const QueryInstance& q,
                             AggregateAccumulator* acc);
  /// \brief The batch form with the predicates already compiled, so a
  /// caller continuing over delta rows compiles each query once: feeds
  /// accs[q] exactly what the single-query form feeds it for scans[q],
  /// through one batch-major pass (ReduceMatches).
  static void AccumulateOver(const Table& table, const RangeScan* scans,
                             size_t n, size_t measure_col,
                             AggregateAccumulator* accs);

  /// \brief Number of rows matching the predicate.
  size_t CountMatches(const QueryFunctionSpec& spec,
                      const QueryInstance& q) const;

  /// \brief Exact answers for a batch; optionally multi-threaded on the
  /// shared process pool (util/thread_pool.h). `num_threads == 0` means
  /// hardware concurrency; 1 runs serially on the calling thread. The
  /// whole batch runs over one pinned version.
  std::vector<double> AnswerBatch(const QueryFunctionSpec& spec,
                                  const std::vector<QueryInstance>& queries,
                                  size_t num_threads = 1) const;

  /// \brief Column count of the underlying data; invariant across
  /// streaming swaps.
  size_t num_columns() const;

 private:
  const Table* table_ = nullptr;               // static mode
  const StreamingTable* streaming_ = nullptr;  // streaming mode
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_ENGINE_H_
