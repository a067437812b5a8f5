#include "query/engine.h"

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
  AccumulateOver(table, scan, spec.measure_col, acc);
}

void ExactEngine::AccumulateOver(const Table& table, const RangeScan& scan,
                                 size_t measure_col,
                                 AggregateAccumulator* acc) {
  const auto cols = ColumnPointers(table);
  const ColumnRows rows{cols.data(), cols.size()};
  const auto measure = rows.Column(measure_col);
  scan.ForEachMatch(rows, table.num_rows(), [&](const size_t* idx, size_t m) {
    acc->AddSelected(idx, m, measure);
  });
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
  const Table& t = *pinned.table;
  const auto cols = ColumnPointers(t);
  const RangeScan scan(*spec.predicate, q, t.num_columns());
  size_t matches = 0;
  scan.ForEachMatch(ColumnRows{cols.data(), cols.size()}, t.num_rows(),
                    [&](const size_t*, size_t m) { matches += m; });
  return matches;
}

std::vector<double> ExactEngine::AnswerBatch(
    const QueryFunctionSpec& spec, const std::vector<QueryInstance>& queries,
    size_t num_threads) const {
  // One pin for the whole batch: a concurrent compaction swap must never
  // split a batch across two base versions.
  const PinnedBase pinned = Pin();
  const Table& t = *pinned.table;
  auto answer_one = [&](const QueryInstance& q) {
    AggregateAccumulator acc(spec.agg);
    AccumulateOver(t, spec, q, &acc);
    return acc.Finalize();
  };
  std::vector<double> out(queries.size());
  ThreadPool& pool = ThreadPool::Shared();
  const size_t parallelism =
      num_threads == 0 ? pool.num_threads() + 1 : num_threads;
  if (parallelism <= 1 || queries.size() < 2 * parallelism) {
    for (size_t i = 0; i < queries.size(); ++i) {
      out[i] = answer_one(queries[i]);
    }
    return out;
  }
  pool.ParallelFor(queries.size(), parallelism,
                   [&](size_t i) { out[i] = answer_one(queries[i]); });
  return out;
}

}  // namespace neurosketch
