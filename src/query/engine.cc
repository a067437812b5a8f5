#include "query/engine.h"

#include <algorithm>

#include "query/aggregate.h"
#include "util/thread_pool.h"

namespace neurosketch {

namespace {
/// Gathers per-column base pointers once; the row scan is the hot path of
/// training-set generation.
std::vector<const double*> ColumnPointers(const Table& t) {
  std::vector<const double*> cols(t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) cols[c] = t.column(c).data();
  return cols;
}
}  // namespace

ExactEngine::ExactEngine(const Table* table) : table_(table) {}

ExactEngine::ExactEngine(const StreamingTable* streaming)
    : streaming_(streaming) {}

ExactEngine::PinnedBase ExactEngine::Pin() const {
  PinnedBase pinned;
  if (streaming_ != nullptr) {
    pinned.version = streaming_->Pin();
    pinned.table = &pinned.version->table;
    pinned.folded = pinned.version->folded;
  } else {
    pinned.table = table_;
  }
  return pinned;
}

size_t ExactEngine::num_columns() const {
  if (streaming_ != nullptr) return streaming_->num_columns();
  return table_->num_columns();
}

double ExactEngine::Answer(const QueryFunctionSpec& spec,
                           const QueryInstance& q) const {
  AggregateAccumulator acc(spec.agg);
  Accumulate(spec, q, &acc);
  return acc.Finalize();
}

void ExactEngine::AccumulateOver(const Table& table,
                                 const QueryFunctionSpec& spec,
                                 const QueryInstance& q,
                                 AggregateAccumulator* acc) {
  const RangeScan scan(*spec.predicate, q, table.num_columns());
  AccumulateOver(table, &scan, 1, spec.measure_col, acc);
}

void ExactEngine::AccumulateOver(const Table& table, const RangeScan* scans,
                                 size_t n, size_t measure_col,
                                 AggregateAccumulator* accs) {
  const auto cols = ColumnPointers(table);
  ReduceMatches(ColumnRows{cols.data(), cols.size()}, table.num_rows(), scans,
                nullptr, n, measure_col, accs);
}

void ExactEngine::Accumulate(const QueryFunctionSpec& spec,
                             const QueryInstance& q,
                             AggregateAccumulator* acc) const {
  const PinnedBase pinned = Pin();
  AccumulateOver(*pinned.table, spec, q, acc);
}

size_t ExactEngine::CountMatches(const QueryFunctionSpec& spec,
                                 const QueryInstance& q) const {
  const PinnedBase pinned = Pin();
  const RangeScan scan(*spec.predicate, q, pinned.table->num_columns());
  AggregateAccumulator acc(Aggregate::kCount);
  AccumulateOver(*pinned.table, &scan, 1, spec.measure_col, &acc);
  return acc.count();
}

std::vector<double> ExactEngine::AnswerBatch(
    const QueryFunctionSpec& spec, const std::vector<QueryInstance>& queries,
    size_t num_threads) const {
  // One pin for the whole batch: a concurrent compaction swap must never
  // split a batch across two base versions.
  const PinnedBase pinned = Pin();
  const Table& t = *pinned.table;
  std::vector<double> out(queries.size());
  // Answers queries [begin, end) with one batch-major pass.
  auto answer_range = [&](size_t begin, size_t end) {
    std::vector<RangeScan> scans;
    scans.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      scans.emplace_back(*spec.predicate, queries[i], t.num_columns());
    }
    std::vector<AggregateAccumulator> accs(end - begin,
                                           AggregateAccumulator(spec.agg));
    AccumulateOver(t, scans.data(), scans.size(), spec.measure_col,
                   accs.data());
    for (size_t i = begin; i < end; ++i) out[i] = accs[i - begin].Finalize();
  };
  ThreadPool& pool = ThreadPool::Shared();
  const size_t parallelism =
      num_threads == 0 ? pool.num_threads() + 1 : num_threads;
  if (parallelism <= 1 || queries.size() < 2 * parallelism) {
    answer_range(0, queries.size());
    return out;
  }
  // Threads draw chunks of one lockstep group each, so load still
  // balances across uneven chunks.
  constexpr size_t kChunk = AggregateAccumulator::kLockstepLanes;
  pool.ParallelFor((queries.size() + kChunk - 1) / kChunk, parallelism,
                   [&](size_t c) {
                     answer_range(c * kChunk, std::min(queries.size(),
                                                       (c + 1) * kChunk));
                   });
  return out;
}

}  // namespace neurosketch
